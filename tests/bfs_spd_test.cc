#include "sp/bfs_spd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace mhbc {
namespace {

TEST(BfsSpdTest, PathDistancesAndSigma) {
  const CsrGraph g = MakePath(6);
  BfsSpd bfs(g);
  bfs.Run(0);
  const auto& dag = bfs.dag();
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(dag.dist[v], v);
    EXPECT_EQ(dag.sigma[v], 1u);
  }
  EXPECT_EQ(dag.source, 0u);
  EXPECT_EQ(dag.num_reached(), 6u);
}

TEST(BfsSpdTest, EvenCycleAntipodalHasTwoPaths) {
  const CsrGraph g = MakeCycle(8);
  BfsSpd bfs(g);
  bfs.Run(0);
  EXPECT_EQ(bfs.dag().dist[4], 4u);
  EXPECT_EQ(bfs.dag().sigma[4], 2u);
  EXPECT_EQ(bfs.dag().sigma[3], 1u);
}

TEST(BfsSpdTest, CompleteBipartiteSigma) {
  // K_{2,3}: sides A={0,1}, B={2,3,4}. From 2 to 3: 2 paths (via 0 or 1).
  const CsrGraph g = MakeCompleteBipartite(2, 3);
  BfsSpd bfs(g);
  bfs.Run(2);
  EXPECT_EQ(bfs.dag().dist[3], 2u);
  EXPECT_EQ(bfs.dag().sigma[3], 2u);
  EXPECT_EQ(bfs.dag().sigma[0], 1u);
}

TEST(BfsSpdTest, GridSigmaBinomial) {
  // On a grid, #shortest paths from corner (0,0) to (r,c) is C(r+c, r).
  const CsrGraph g = MakeGrid(4, 4);
  BfsSpd bfs(g);
  bfs.Run(0);
  const auto& dag = bfs.dag();
  EXPECT_EQ(dag.sigma[1 * 4 + 1], 2u);   // C(2,1)
  EXPECT_EQ(dag.sigma[2 * 4 + 2], 6u);   // C(4,2)
  EXPECT_EQ(dag.sigma[3 * 4 + 3], 20u);  // C(6,3)
  EXPECT_EQ(dag.dist[3 * 4 + 3], 6u);
}

TEST(BfsSpdTest, DisconnectedLeavesUnreached) {
  // Star plus isolated vertex 5.
  GraphBuilder b = [] {
    GraphBuilder builder(6);
    for (VertexId v = 1; v < 5; ++v) builder.AddEdge(0, v);
    return builder;
  }();
  const CsrGraph g = std::move(b.Build()).value();
  BfsSpd bfs(g);
  bfs.Run(0);
  EXPECT_EQ(bfs.dag().dist[5], kUnreachedDistance);
  EXPECT_EQ(bfs.dag().sigma[5], 0u);
  EXPECT_EQ(bfs.dag().num_reached(), 5u);
}

TEST(BfsSpdTest, OrderIsNonDecreasingDistance) {
  const CsrGraph g = MakeBarabasiAlbert(150, 3, 77);
  BfsSpd bfs(g);
  bfs.Run(10);
  const auto& dag = bfs.dag();
  for (std::size_t i = 1; i < dag.order.size(); ++i) {
    EXPECT_LE(dag.dist[dag.order[i - 1]], dag.dist[dag.order[i]]);
  }
  EXPECT_EQ(dag.order.front(), 10u);
}

TEST(BfsSpdTest, ReuseAcrossSourcesResetsState) {
  const CsrGraph g = MakePath(5);
  BfsSpd bfs(g);
  bfs.Run(0);
  bfs.Run(4);
  const auto& dag = bfs.dag();
  EXPECT_EQ(dag.source, 4u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(dag.dist[v], 4u - v);
    EXPECT_EQ(dag.sigma[v], 1u);
  }
}

TEST(BfsSpdTest, LevelOffsetsSliceOrderByDistance) {
  const CsrGraph g = MakeBarabasiAlbert(150, 3, 77);
  BfsSpd bfs(g);
  bfs.Run(10);
  const auto& dag = bfs.dag();
  ASSERT_FALSE(dag.level_offsets.empty());
  ASSERT_EQ(dag.level_offsets.front(), 0u);
  ASSERT_EQ(dag.level_offsets.back(), dag.order.size());
  for (std::size_t l = 0; l < dag.num_levels(); ++l) {
    ASSERT_LT(dag.level_offsets[l], dag.level_offsets[l + 1]);
    for (std::size_t i = dag.level_offsets[l]; i < dag.level_offsets[l + 1];
         ++i) {
      EXPECT_EQ(dag.dist[dag.order[i]], l);
    }
  }
}

TEST(BfsSpdTest, OrderIsCanonicalWithinLevels) {
  // Ascending vertex id inside each level — the order the dependency
  // sweep's regrouping contract is pinned to.
  const CsrGraph g = MakeErdosRenyiGnm(120, 400, 9);
  BfsSpd bfs(g);
  bfs.Run(3);
  const auto& dag = bfs.dag();
  for (std::size_t i = 1; i < dag.order.size(); ++i) {
    if (dag.dist[dag.order[i - 1]] == dag.dist[dag.order[i]]) {
      EXPECT_LT(dag.order[i - 1], dag.order[i]);
    }
  }
}

TEST(BfsSpdTest, SigmaTotalsMatchIndependentBfs) {
  // sigma additivity: for every v != s, sigma[v] equals the sum of sigma
  // over its SPD parents.
  const CsrGraph g = MakeErdosRenyiGnm(80, 200, 13);
  BfsSpd bfs(g);
  bfs.Run(0);
  const auto& dag = bfs.dag();
  for (VertexId v : dag.order) {
    if (v == 0) continue;
    SigmaCount parent_sum = 0;
    for (VertexId u : g.neighbors(v)) {
      if (dag.dist[u] + 1 == dag.dist[v]) parent_sum += dag.sigma[u];
    }
    EXPECT_EQ(dag.sigma[v], parent_sum) << "vertex " << v;
  }
}

TEST(BfsSpdTest, OverflowedSigmaIsExactInEveryKernel) {
  // A chain of 1100 diamonds doubles sigma at every diamond, so it
  // overflows to +inf past the 1024th. A rung inside each diamond gives
  // the bottom-up scan a non-parent neighbor whose sigma is already set
  // (the first side vertex, when the second is scanned). The branch-free
  // scan must add exactly +0.0 for it even when that sigma is +inf (a
  // multiply by 0.0 would yield NaN), at 1 and 4 threads.
  constexpr VertexId kDiamonds = 1100;
  GraphBuilder builder(1 + 3 * kDiamonds);
  for (VertexId d = 0; d < kDiamonds; ++d) {
    const VertexId top = 3 * d;
    builder.AddEdge(top, top + 1);
    builder.AddEdge(top, top + 2);
    builder.AddEdge(top + 1, top + 2);
    builder.AddEdge(top + 1, top + 3);
    builder.AddEdge(top + 2, top + 3);
  }
  const CsrGraph g = std::move(builder.Build()).value();
  SpdOptions classic;
  classic.kernel = SpdKernel::kClassic;
  BfsSpd reference(g, classic);
  reference.Run(0);
  ASSERT_TRUE(std::isinf(reference.dag().sigma[3 * kDiamonds]));
  for (unsigned threads : {1u, 4u}) {
    SpdOptions bottom_up;  // every level bottom-up
    bottom_up.alpha = 1e9;
    bottom_up.beta = 0.0;
    bottom_up.num_threads = threads;
    bottom_up.parallel_grain = 0;
    BfsSpd bfs(g, bottom_up);
    bfs.Run(0);
    EXPECT_GT(bfs.last_stats().bottom_up_levels, 2 * kDiamonds - 1);
    EXPECT_EQ(bfs.dag().dist, reference.dag().dist) << threads;
    EXPECT_EQ(bfs.dag().sigma, reference.dag().sigma) << threads;
    EXPECT_EQ(bfs.dag().order, reference.dag().order) << threads;
  }
}

}  // namespace
}  // namespace mhbc
