#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "graph/generators.h"
#include "util/stats.h"

/// \file
/// The MH chains' counter-based proposal streams (random-stream layout v2,
/// docs/estimators.md "Random streams"), seen through the engine: the
/// chains of one multi-target request propose the same sources, so chains
/// after the first cost no passes, and the proposals they share still
/// give an unbiased mh-rb estimate for every target.

namespace mhbc {
namespace {

/// The statistical report fields, compared by bit pattern.
void ExpectSameStatistics(const EstimateReport& a, const EstimateReport& b) {
  EXPECT_EQ(a.vertex, b.vertex);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
            std::bit_cast<std::uint64_t>(b.value));
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.acceptance_rate),
            std::bit_cast<std::uint64_t>(b.acceptance_rate));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ess),
            std::bit_cast<std::uint64_t>(b.ess));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.std_error),
            std::bit_cast<std::uint64_t>(b.std_error));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ci_half_width),
            std::bit_cast<std::uint64_t>(b.ci_half_width));
  EXPECT_EQ(a.converged, b.converged);
}

TEST(SharedProposalsTest, MultiTargetRequestPaysOneChainsPasses) {
  // A single-target chain pays one pass per distinct source it draws
  // (initial state plus 64 proposals). The three chains of one request
  // draw the same sources, so the request pays exactly that, not ~1.5x.
  const CsrGraph g = MakeBarabasiAlbert(1000, 3, 0xD16E57);
  const std::vector<VertexId> targets = {0, 10, 600};
  for (EstimatorKind kind : {EstimatorKind::kMetropolisHastings,
                             EstimatorKind::kMhRaoBlackwell}) {
    for (std::uint64_t seed : {0x5E55ULL, 7ULL, 0xFACADEULL}) {
      SCOPED_TRACE(std::string(EstimatorKindName(kind)) + " seed " +
                   std::to_string(seed));
      EstimateRequest request;
      request.kind = kind;
      request.samples = 64;
      request.seed = seed;

      BetweennessEngine many_engine(g);
      const auto many = many_engine.EstimateMany(targets, request);
      ASSERT_TRUE(many.ok());
      BetweennessEngine first_engine(g);
      ASSERT_TRUE(first_engine.Estimate(targets[0], request).ok());
      EXPECT_LE(first_engine.total_sp_passes(), 65u);
      EXPECT_EQ(many_engine.total_sp_passes(), first_engine.total_sp_passes());

      for (std::size_t i = 0; i < targets.size(); ++i) {
        BetweennessEngine solo_engine(g);
        const auto solo = solo_engine.Estimate(targets[i], request);
        ASSERT_TRUE(solo.ok());
        ExpectSameStatistics(many.value()[i], solo.value());
      }
    }
  }
}

TEST(SharedProposalsTest, SharedProposalsKeepMhRbUnbiased) {
  // Over 300 seeds, the mean mh-rb value of a three-target EstimateMany
  // must lie within 4 standard errors of exact Brandes, for a hub, a
  // median-BC target and a low-but-positive-BC target (the median and the
  // 90th-percentile rank among vertices with positive BC).
  constexpr std::uint64_t kSeeds = 300;
  const CsrGraph g = MakeBarabasiAlbert(300, 2, 0x57A7);
  BetweennessEngine engine(g);

  EstimateRequest exact;
  exact.kind = EstimatorKind::kExact;
  std::vector<double> bc(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto report = engine.Estimate(v, exact);
    ASSERT_TRUE(report.ok());
    bc[v] = report.value().value;
  }
  std::vector<VertexId> positive;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (bc[v] > 0.0) positive.push_back(v);
  }
  ASSERT_GE(positive.size(), 20u);
  std::sort(positive.begin(), positive.end(), [&bc](VertexId a, VertexId b) {
    return bc[a] != bc[b] ? bc[a] > bc[b] : a < b;
  });
  const std::vector<VertexId> targets = {positive.front(),
                                         positive[positive.size() / 2],
                                         positive[positive.size() * 9 / 10]};

  EstimateRequest request;
  request.kind = EstimatorKind::kMhRaoBlackwell;
  request.samples = 64;
  std::vector<RunningStats> values(targets.size());
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    request.seed = seed;
    const auto reports = engine.EstimateMany(targets, request);
    ASSERT_TRUE(reports.ok());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      values[i].Add(reports.value()[i].value);
    }
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const double se =
        values[i].stddev() / std::sqrt(static_cast<double>(kSeeds));
    EXPECT_GT(se, 0.0);
    EXPECT_LE(std::abs(values[i].mean() - bc[targets[i]]), 4.0 * se)
        << "target " << targets[i] << ": mean " << values[i].mean()
        << ", exact " << bc[targets[i]] << ", se " << se;
  }
}

}  // namespace
}  // namespace mhbc
