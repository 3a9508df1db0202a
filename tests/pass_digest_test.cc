#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/geisberger_sampler.h"
#include "baselines/rk_sampler.h"
#include "centrality/engine.h"
#include "exact/dependency_oracle.h"
#include "core/joint_space.h"
#include "datasets/registry.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"
#include "sp/dijkstra_spd.h"

/// \file
/// Cross-version bit-identity gate. The other determinism suites compare
/// two runs of one build (kernels, thread counts, grains), so a change
/// that moves every run the same way passes them all. This suite pins
/// outputs to FNV-1a digests recorded as constants: dependency vectors
/// from fixed sources, RK credit vectors, Geisberger estimates, the
/// report fields of one analyst session, and every registry estimator
/// served through one engine at two budgets, and the dependency and RK
/// credit vectors of weighted passes (DeltaSpd, sequential and sharded,
/// and the DijkstraSpd reference), including graphs shaped to reach the
/// weighted queue's rarer paths and path lengths at the tie-epsilon
/// boundary. A speed change to the SPD
/// kernels or the backward sweep must leave every digest unchanged; a
/// change that means to move results updates the constants and says why.

namespace mhbc {
namespace {

constexpr std::size_t kSources = 64;

/// 64-bit FNV-1a over the object bytes of the values fed to it (doubles
/// by bit pattern, so -0.0 and +0.0 differ).
class Fnv1a {
 public:
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char byte : bytes) {
      hash_ = (hash_ ^ byte) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void AddAll(const std::vector<T>& values) {
    Add(values.size());
    for (const T& value : values) Add(value);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Fixture {
  std::string name;
  CsrGraph graph;
};

/// A low-diameter scale-free graph (bottom-up levels, dense levels), a
/// high-diameter grid (top-down only, many small levels) and a directed
/// graph (parents over in-edges).
std::vector<Fixture> Fixtures() {
  std::vector<Fixture> fixtures;
  fixtures.push_back({"ba-1000", MakeBarabasiAlbert(1000, 3, 0xD16E57)});
  fixtures.push_back({"grid-30x30", MakeGrid(30, 30)});
  fixtures.push_back(
      {"directed-1000", MakeRandomDirected(1000, 5000, 0xD1)});
  return fixtures;
}

std::vector<VertexId> Sources(VertexId n) {
  std::vector<VertexId> sources;
  for (std::size_t i = 0; i < kSources; ++i) {
    sources.push_back(
        static_cast<VertexId>((std::uint64_t{n} * i) / kSources));
  }
  return sources;
}

/// Classic and hybrid kernels, sequential and 4-thread passes; grain 0
/// sends every level of the 4-thread passes through the sharded steps.
std::vector<std::pair<std::string, SpdOptions>> Configs() {
  std::vector<std::pair<std::string, SpdOptions>> configs;
  for (SpdKernel kernel : {SpdKernel::kClassic, SpdKernel::kHybrid}) {
    for (unsigned threads : {1u, 4u}) {
      SpdOptions spd;
      spd.kernel = kernel;
      spd.num_threads = threads;
      if (threads > 1) spd.parallel_grain = 0;
      configs.emplace_back(
          std::string(kernel == SpdKernel::kClassic ? "classic" : "hybrid") +
              "/" + std::to_string(threads),
          spd);
    }
  }
  return configs;
}

std::string Hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

TEST(PassDigestTest, DependencyVectorsFromFixedSources) {
  const std::uint64_t expected[] = {0xe6cfacc6136361aeULL,
                                    0xc5ef1f1a6d4613d8ULL,
                                    0xe02fec3add78fc4cULL};
  const std::vector<Fixture> fixtures = Fixtures();
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    const CsrGraph& g = fixtures[f].graph;
    for (const auto& [config, spd] : Configs()) {
      DependencyOracle oracle(g, spd);
      Fnv1a digest;
      for (VertexId s : Sources(g.num_vertices())) {
        digest.AddAll(oracle.Dependencies(s));
      }
      EXPECT_EQ(Hex(digest.value()), Hex(expected[f]))
          << fixtures[f].name << " " << config;
    }
  }
}

TEST(PassDigestTest, RkCreditVectors) {
  const std::uint64_t expected[] = {0xbbcab21e2b42f4f7ULL,
                                    0xa7c61a365d647406ULL,
                                    0x4e901f63c54f520cULL};
  const std::vector<Fixture> fixtures = Fixtures();
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    for (const auto& [config, spd] : Configs()) {
      DependencyOracle oracle(fixtures[f].graph, spd);
      RkSampler rk(fixtures[f].graph, /*seed=*/0x4B, &oracle);
      Fnv1a digest;
      digest.AddAll(rk.EstimateAll(128));
      EXPECT_EQ(Hex(digest.value()), Hex(expected[f]))
          << fixtures[f].name << " " << config;
    }
  }
}

TEST(PassDigestTest, GeisbergerEstimates) {
  const std::uint64_t expected[] = {0x2802c3ae95d33ca0ULL,
                                    0x6f9d69b0110f8860ULL,
                                    0xb75a089cec590d1dULL};
  const std::vector<Fixture> fixtures = Fixtures();
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    const CsrGraph& g = fixtures[f].graph;
    for (const auto& [config, spd] : Configs()) {
      DependencyOracle oracle(g, spd);
      GeisbergerSampler geisberger(g, /*seed=*/0x6E, &oracle);
      Fnv1a digest;
      for (VertexId r : {VertexId{0}, g.num_vertices() / 3,
                         g.num_vertices() / 2, g.num_vertices() - 1}) {
        digest.Add(geisberger.Estimate(r, 32));
      }
      EXPECT_EQ(Hex(digest.value()), Hex(expected[f]))
          << fixtures[f].name << " " << config;
    }
  }
}

/// An integer-weight grid: weights 1..3 from a hash of the edge, so path
/// lengths are exact sums and many of them tie exactly — most vertices
/// get several parents, and their order is what the fold regroups by.
CsrGraph IntegerWeightGrid(VertexId rows, VertexId cols) {
  const CsrGraph grid = MakeGrid(rows, cols);
  GraphBuilder builder(grid.num_vertices());
  for (const CsrGraph::Edge& e : grid.CollectEdges()) {
    const std::uint64_t hash = (std::uint64_t{e.u} * 0x9E3779B1ULL) ^
                               (std::uint64_t{e.v} * 0x85EBCA6BULL);
    builder.AddWeightedEdge(e.u, e.v,
                            static_cast<double>(1 + (hash >> 7) % 3));
  }
  return std::move(builder.Build()).value();
}

/// A weight-1 path 0 - 1 - ... - (path_len - 1) from the source, plus
/// `spokes` vertices hung off vertex 0 by weight-4000 edges and paired
/// by weight-1 edges. The path settles one vertex per wave while every
/// spoke waits at distance 4000, far past the path's window.
CsrGraph HeavySpoke(VertexId path_len, VertexId spokes) {
  GraphBuilder builder(path_len + spokes);
  for (VertexId v = 1; v < path_len; ++v) {
    builder.AddWeightedEdge(v - 1, v, 1.0);
  }
  for (VertexId i = 0; i < spokes; ++i) {
    builder.AddWeightedEdge(0, path_len + i, 4000.0);
    if (i % 2 == 1) {
      builder.AddWeightedEdge(path_len + i - 1, path_len + i, 1.0);
    }
  }
  return std::move(builder.Build()).value();
}

/// Source 0 reaches four relays a1..a4 (ids 1..4, distances 10..40) and
/// every relay reaches each of eight targets b1..b8 (ids 5..12) over
/// paths of length about 1000. Target j's path through relay i is
/// 1000 * (1 + f[j][i] * eps), eps = kDefaultTieEpsilon: offsets of
/// 0.5 eps tie, offsets of 2 eps do not, and some rows improve strictly
/// after a tie or drop a parent that would tie the final distance. The
/// targets feed a sink chain 13 - 14 so they carry dependency.
CsrGraph NearTieGraph() {
  constexpr double kOffsets[8][4] = {
      {0.0, 0.5, 2.0, -0.5},  {0.0, -2.0, 0.5, 0.0},
      {0.0, -1.5, -0.8, 0.5}, {0.6, 0.0, -0.6, 1.2},
      {0.0, 0.9, 1.8, 0.45},  {0.0, 0.0, 0.0, 0.0},
      {2.0, 0.5, 1.0, -1.0},  {0.5, 1.0, 1.4, 2.6},
  };
  constexpr double kLength = 1000.0;
  GraphBuilder builder(15);
  for (VertexId i = 1; i <= 4; ++i) {
    builder.AddWeightedEdge(0, i, 10.0 * i);
  }
  for (VertexId j = 0; j < 8; ++j) {
    for (VertexId i = 1; i <= 4; ++i) {
      builder.AddWeightedEdge(
          i, 5 + j,
          (kLength - 10.0 * i) +
              kOffsets[j][i - 1] * kDefaultTieEpsilon * kLength);
    }
    builder.AddWeightedEdge(5 + j, 13, 1.0 + j / 100.0);
  }
  builder.AddWeightedEdge(13, 14, 1.0);
  return std::move(builder.Build()).value();
}

/// A real-weight grid (the churn-serve road shape), a weighted directed
/// graph (parents over in-edges, minw over in-weights), an integer-weight
/// grid with many exact ties, and graphs shaped for the weighted queue:
/// waves of ~110 members (email-like-1k at [1,3]), vertices that wait far
/// past the wave window (BA at [1,1000]), a heavy-spoke graph and path
/// lengths at the tie-epsilon boundary.
std::vector<Fixture> WeightedFixtures() {
  std::vector<Fixture> fixtures;
  fixtures.push_back({"weighted-grid-32x32",
                      AssignUniformWeights(MakeGrid(32, 32), 1.0, 4.0, 0x3E)});
  fixtures.push_back(
      {"weighted-directed-1000",
       AssignUniformWeights(MakeRandomDirected(1000, 5000, 0xD1), 1.0, 3.0,
                            0xD2)});
  fixtures.push_back({"integer-grid-24x24", IntegerWeightGrid(24, 24)});
  fixtures.push_back(
      {"email-like-1k-w3",
       AssignUniformWeights(MakeDataset("email-like-1k").value(), 1.0, 3.0,
                            0xE24)});
  fixtures.push_back(
      {"ba-2000-w1000",
       AssignUniformWeights(MakeBarabasiAlbert(2000, 3, 0xBA2), 1.0, 1000.0,
                            0xBA3)});
  fixtures.push_back({"heavy-spoke-100-800", HeavySpoke(100, 800)});
  fixtures.push_back({"near-tie-15", NearTieGraph()});
  return fixtures;
}

/// DeltaSpd sequential, and at 4 threads with grain 0: every wave's
/// relaxation and every level of the backward sweep go through the
/// sharded steps.
std::vector<std::pair<std::string, SpdOptions>> WeightedConfigs() {
  std::vector<std::pair<std::string, SpdOptions>> configs;
  for (unsigned threads : {1u, 4u}) {
    SpdOptions spd;
    spd.num_threads = threads;
    if (threads > 1) spd.parallel_grain = 0;
    configs.emplace_back("delta/" + std::to_string(threads), spd);
  }
  return configs;
}

TEST(PassDigestTest, WeightedDependencyVectorsFromFixedSources) {
  // {DeltaSpd at every config, DijkstraSpd} per fixture. The two engines
  // settle in different orders, so a parent may fold its children's terms
  // in a different order: on the tie-rich integer grid the last bits
  // differ. On the near-tie graph the parent sets differ too, since
  // DeltaSpd drops a tie that lands within tie_epsilon of its
  // wave-settle bound: from source 7, vertex 0 settles in relay 1's wave,
  // before relay 1's tying candidate arrives, so it keeps two parents
  // under DeltaSpd and three under DijkstraSpd.
  const std::uint64_t expected[][2] = {
      {0x462d7414c3a99624ULL, 0x462d7414c3a99624ULL},
      {0xf3909724fda586ecULL, 0xf3909724fda586ecULL},
      {0xf612ed7972273073ULL, 0xba394ee3954315feULL},
      {0x088bea0b82f0912aULL, 0x088bea0b82f0912aULL},
      {0xde5c9129f48730faULL, 0xde5c9129f48730faULL},
      {0xceebb512a93c1ad7ULL, 0xceebb512a93c1ad7ULL},
      {0x440ad062bea7dd2dULL, 0x18e70d780051ec4cULL},
  };
  const std::vector<Fixture> fixtures = WeightedFixtures();
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    const CsrGraph& g = fixtures[f].graph;
    for (const auto& [config, spd] : WeightedConfigs()) {
      DependencyOracle oracle(g, spd);
      Fnv1a digest;
      for (VertexId s : Sources(g.num_vertices())) {
        digest.AddAll(oracle.Dependencies(s));
      }
      EXPECT_EQ(Hex(digest.value()), Hex(expected[f][0]))
          << fixtures[f].name << " " << config;
    }
    DijkstraSpd dijkstra(g);
    DependencyAccumulator accumulator(g);
    Fnv1a digest;
    for (VertexId s : Sources(g.num_vertices())) {
      dijkstra.Run(s);
      digest.AddAll(accumulator.Accumulate(dijkstra));
    }
    EXPECT_EQ(Hex(digest.value()), Hex(expected[f][1]))
        << fixtures[f].name << " dijkstra";
  }
}

TEST(PassDigestTest, WeightedRkCreditVectors) {
  const std::uint64_t expected[] = {0xecf3e42b88a3981dULL,
                                    0xea8b5705375ca80dULL,
                                    0x19def63968ee8926ULL,
                                    0x67b4c87a3e6aa0adULL,
                                    0x28306aa7e18c5058ULL,
                                    0x6521e1a1cc7b3427ULL,
                                    0xaae25c1e064ef5edULL};
  const std::vector<Fixture> fixtures = WeightedFixtures();
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    for (const auto& [config, spd] : WeightedConfigs()) {
      DependencyOracle oracle(fixtures[f].graph, spd);
      RkSampler rk(fixtures[f].graph, /*seed=*/0x4B, &oracle);
      Fnv1a digest;
      digest.AddAll(rk.EstimateAll(256));
      EXPECT_EQ(Hex(digest.value()), Hex(expected[f]))
          << fixtures[f].name << " " << config;
    }
  }
}

TEST(PassDigestTest, HeavySpokeScanStaysLinear) {
  // From the hub, the path takes 500 one-vertex waves while 4000 spokes
  // wait at distance 4000. A queue that rescanned every waiting entry on
  // each wave would visit ~2,000,000 entries; a pass must stay within one
  // visit per vertex and arc.
  const CsrGraph g = HeavySpoke(500, 4000);
  const std::uint64_t bound = g.num_vertices() + g.raw_adjacency().size();
  ASSERT_EQ(bound, 17498u);
  DeltaSpd spd(g);
  spd.Run(0);
  EXPECT_EQ(spd.dag().num_reached(), g.num_vertices());
  EXPECT_LE(spd.last_stats().entries_scanned, bound);
}

TEST(PassDigestTest, AnalystSessionReport) {
  // One cold-estimate-shaped session: a fresh engine, EstimateMany with
  // the mh chain over three targets, then RankTargets on them.
  const std::uint64_t expected = 0x399b19eaadd3f3b0ULL;
  const CsrGraph g = MakeBarabasiAlbert(1000, 3, 0xD16E57);
  const std::vector<VertexId> targets = {0, 10, 600};
  BetweennessEngine engine(g);
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 64;
  request.seed = 0x5E55;
  const auto reports = engine.EstimateMany(targets, request);
  ASSERT_TRUE(reports.ok());
  const auto order =
      engine.RankTargets(targets, 64, 0x5E55 ^ 0x9e3779b97f4a7c15ULL);
  ASSERT_TRUE(order.ok());
  Fnv1a digest;
  for (const EstimateReport& report : reports.value()) {
    digest.Add(report.vertex);
    digest.Add(report.value);
    digest.Add(report.sp_passes);
    digest.Add(static_cast<int>(report.kind));
    digest.Add(report.samples_used);
    digest.Add(report.acceptance_rate);
    digest.Add(report.ess);
    digest.Add(report.std_error);
    digest.Add(report.ci_half_width);
    digest.Add(report.cache_hit);
    digest.Add(report.converged);
  }
  digest.AddAll(order.value());
  digest.Add(engine.total_sp_passes());
  EXPECT_EQ(Hex(digest.value()), Hex(expected));
}

/// Statistical fields of a report, plus the work accounting when `work`.
void AddReport(const EstimateReport& report, bool work, Fnv1a* digest) {
  digest->Add(report.vertex);
  digest->Add(static_cast<int>(report.kind));
  digest->Add(report.value);
  digest->Add(report.samples_used);
  digest->Add(report.acceptance_rate);
  digest->Add(report.ess);
  digest->Add(report.std_error);
  digest->Add(report.ci_half_width);
  digest->Add(report.converged);
  if (work) {
    digest->Add(report.sp_passes);
    digest->Add(report.cache_hit);
  }
}

/// One engine serves every registry estimator at kSamples and at
/// kStandardError over four targets, then TopK and EstimateRelative. At
/// one thread the digest covers every report field but `seconds` and the
/// engine's pass and memo-hit totals after each call; at more threads
/// (the sharded EstimateMany path) it covers the statistical fields only.
std::uint64_t EngineSessionDigest(const CsrGraph& g, unsigned threads) {
  const bool work = threads == 1;
  EngineOptions options;
  options.num_threads = threads;
  BetweennessEngine engine(g, options);
  const VertexId n = g.num_vertices();
  const std::vector<VertexId> targets = {0, n / 3, n / 2, n - 1};
  Fnv1a digest;
  for (const EstimatorEntry& entry : EstimatorRegistry()) {
    if (g.weighted() && !entry.supports_weighted) continue;
    for (BudgetKind budget :
         {BudgetKind::kSamples, BudgetKind::kStandardError}) {
      EstimateRequest request;
      request.kind = entry.kind;
      request.budget = budget;
      request.samples = 200;
      request.target_std_error = 0.004;
      request.max_samples = 1024;
      request.seed = 0xD16 + static_cast<std::uint64_t>(entry.kind);
      const auto reports = engine.EstimateMany(targets, request);
      EXPECT_TRUE(reports.ok()) << entry.name;
      if (!reports.ok()) continue;
      for (const EstimateReport& report : reports.value()) {
        AddReport(report, work, &digest);
      }
      if (work) {
        digest.Add(engine.total_sp_passes());
        digest.Add(engine.dependency_cache_hits());
      }
    }
  }
  const auto top = engine.TopK(5, 0.1, 0.1, 0x70F);
  EXPECT_TRUE(top.ok());
  if (top.ok()) {
    for (const TopKEntry& entry : top.value()) {
      digest.Add(entry.vertex);
      digest.Add(entry.estimate);
    }
  }
  const auto joint = engine.EstimateRelative(targets, 256, 0x5E1);
  EXPECT_TRUE(joint.ok());
  if (joint.ok()) {
    const JointResult& result = joint.value();
    for (const std::vector<double>& row : result.relative) digest.AddAll(row);
    for (const std::vector<double>& row : result.ratio) digest.AddAll(row);
    digest.AddAll(result.samples_per_target);
    digest.Add(result.undersampled);
    digest.AddAll(result.copeland_scores);
    digest.Add(result.diagnostics.iterations);
    digest.Add(result.diagnostics.accepted);
    digest.Add(result.diagnostics.rejected);
    digest.Add(result.diagnostics.distinct_states);
  }
  if (work) {
    digest.Add(engine.total_sp_passes());
    digest.Add(engine.dependency_cache_hits());
  }
  return digest.value();
}

TEST(PassDigestTest, EngineReportsEveryEstimator) {
  // {1 thread, 4 threads} per graph. The directed row covers `distance`
  // weighting its sources by the distance to the target (the in-CSR).
  const std::uint64_t expected[][2] = {
      {0x2fdf4f63db16848cULL, 0x2edf5e1986a847b7ULL},
      {0x54f79c0d4a4c6ceaULL, 0xf5ddf8e2798700f6ULL},
      {0x76659915ebb01c25ULL, 0x650eca163f3320e6ULL},
  };
  std::vector<Fixture> fixtures;
  fixtures.push_back({"ba-1000", MakeBarabasiAlbert(1000, 3, 0xD16E57)});
  fixtures.push_back(
      {"directed-1000", MakeRandomDirected(1000, 5000, 0xD1)});
  fixtures.push_back({"weighted-grid-20x20",
                      AssignUniformWeights(MakeGrid(20, 20), 1.0, 4.0, 0x3E)});
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    for (unsigned threads : {1u, 4u}) {
      EXPECT_EQ(Hex(EngineSessionDigest(fixtures[f].graph, threads)),
                Hex(expected[f][threads == 1 ? 0 : 1]))
          << fixtures[f].name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace mhbc
