#include "sp/distance.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace mhbc {
namespace {

TEST(BfsDistancesToTest, Path) {
  const auto dist = BfsDistancesTo(MakePath(5), 2);
  EXPECT_EQ(dist[0], 2u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 0u);
  EXPECT_EQ(dist[4], 2u);
}

TEST(BfsDistancesToTest, UnreachableMarked) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  const CsrGraph g = std::move(b.Build()).value();
  const auto dist = BfsDistancesTo(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachedDistance);
  EXPECT_EQ(dist[3], kUnreachedDistance);
}

TEST(BfsDistancesToTest, DirectedFollowsInEdges) {
  // 0 -> 1 -> 2: every vertex reaches 2, and nothing but 0 reaches 0.
  GraphBuilder b(3);
  b.set_directed(true);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const CsrGraph g = std::move(b.Build()).value();
  const auto to_end = BfsDistancesTo(g, 2);
  EXPECT_EQ(to_end[0], 2u);
  EXPECT_EQ(to_end[1], 1u);
  EXPECT_EQ(to_end[2], 0u);
  const auto to_start = BfsDistancesTo(g, 0);
  EXPECT_EQ(to_start[1], kUnreachedDistance);
  EXPECT_EQ(to_start[2], kUnreachedDistance);
}

TEST(DijkstraDistancesToTest, WeightedPath) {
  GraphBuilder b(3);
  b.AddWeightedEdge(0, 1, 2.5);
  b.AddWeightedEdge(1, 2, 0.5);
  const CsrGraph g = std::move(b.Build()).value();
  const auto dist = DijkstraDistancesTo(g, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 2.5);
  EXPECT_DOUBLE_EQ(dist[2], 3.0);
}

TEST(DijkstraDistancesToTest, UnweightedGraphUsesUnitWeights) {
  const CsrGraph g = MakeCycle(6);
  const auto bfs = BfsDistancesTo(g, 0);
  const auto dij = DijkstraDistancesTo(g, 0);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_DOUBLE_EQ(dij[v], static_cast<double>(bfs[v]));
  }
}

TEST(DijkstraDistancesToTest, UnreachableNegative) {
  GraphBuilder b(3);
  b.AddWeightedEdge(0, 1, 1.0);
  const CsrGraph g = std::move(b.Build()).value();
  EXPECT_LT(DijkstraDistancesTo(g, 0)[2], 0.0);
}

TEST(DijkstraDistancesToTest, DirectedFollowsInEdges) {
  GraphBuilder b(3);
  b.set_directed(true);
  b.AddWeightedEdge(0, 1, 2.5);
  b.AddWeightedEdge(1, 2, 0.5);
  const CsrGraph g = std::move(b.Build()).value();
  const auto to_end = DijkstraDistancesTo(g, 2);
  EXPECT_DOUBLE_EQ(to_end[0], 3.0);
  EXPECT_DOUBLE_EQ(to_end[1], 0.5);
  EXPECT_LT(DijkstraDistancesTo(g, 0)[2], 0.0);
}

TEST(DistanceAgreementTest, WeightedUnitEqualsBfsOnRandomGraph) {
  const CsrGraph g = MakeErdosRenyiGnm(70, 180, 3);
  const CsrGraph wg = AssignUniformWeights(g, 1.0, 1.0, 4);
  for (VertexId s = 0; s < 5; ++s) {
    const auto bfs = BfsDistancesTo(g, s);
    const auto dij = DijkstraDistancesTo(wg, s);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (bfs[v] == kUnreachedDistance) {
        EXPECT_LT(dij[v], 0.0);
      } else {
        EXPECT_DOUBLE_EQ(dij[v], static_cast<double>(bfs[v]));
      }
    }
  }
}

}  // namespace
}  // namespace mhbc
