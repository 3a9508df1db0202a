#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "exact/brandes.h"
#include "graph/generators.h"
#include "sp/distance.h"

namespace mhbc {
namespace {

/// Property sweep over random graph families: global betweenness identities
/// that hold for every unweighted graph.
class BrandesPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  CsrGraph MakeGraph() const {
    const auto [family, seed] = GetParam();
    switch (family) {
      case 0:
        return MakeErdosRenyiGnm(40, 90, seed);
      case 1:
        return MakeBarabasiAlbert(40, 2, seed);
      case 2:
        return MakeWattsStrogatz(40, 4, 0.2, seed);
      default:
        return MakeConnectedCaveman(5, 8);
    }
  }
};

TEST_P(BrandesPropertyTest, TotalRawEqualsInteriorVertexCount) {
  // sum_v raw(v) = sum over ordered reachable pairs (s,t) of (d(s,t) - 1).
  const CsrGraph g = MakeGraph();
  const auto raw = ExactBetweenness(g, Normalization::kNone);
  double total = 0.0;
  for (double s : raw) total += s;
  double expected = 0.0;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto dist = BfsDistancesTo(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (t == s || dist[t] == kUnreachedDistance) continue;
      expected += static_cast<double>(dist[t]) - 1.0;
    }
  }
  EXPECT_NEAR(total, expected, 1e-6);
}

TEST_P(BrandesPropertyTest, ScoresNonNegativeAndPaperNormalizedBounded) {
  const CsrGraph g = MakeGraph();
  const auto paper = ExactBetweenness(g, Normalization::kPaper);
  for (double s : paper) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_P(BrandesPropertyTest, DegreeOneVerticesHaveZeroBetweenness) {
  const CsrGraph g = MakeGraph();
  const auto raw = ExactBetweenness(g, Normalization::kNone);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == 1) {
      EXPECT_DOUBLE_EQ(raw[v], 0.0) << "leaf " << v;
    }
  }
}

TEST_P(BrandesPropertyTest, ProfileSumsMatchFullScores) {
  const CsrGraph g = MakeGraph();
  const auto raw = ExactBetweenness(g, Normalization::kNone);
  // Spot-check three targets spread over the id range.
  for (VertexId r : {VertexId{0}, static_cast<VertexId>(g.num_vertices() / 2),
                     static_cast<VertexId>(g.num_vertices() - 1)}) {
    const auto profile = DependencyProfile(g, r);
    double total = 0.0;
    for (double d : profile) total += d;
    EXPECT_NEAR(total, raw[r], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, BrandesPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values<std::uint64_t>(7, 8, 9)));

}  // namespace
}  // namespace mhbc
