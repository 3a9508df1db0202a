#include "sp/dijkstra_spd.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace mhbc {
namespace {

/// v's SPD parents in the last Run, in settle order.
std::vector<VertexId> Parents(const DijkstraSpd& engine, VertexId v) {
  std::vector<VertexId> parents;
  ForEachParent(engine.dag(), engine.graph(), v,
                [&](VertexId p) { parents.push_back(p); });
  return parents;
}

CsrGraph WeightedDiamond() {
  // 0 -> {1, 2} -> 3 with symmetric weights: two tied shortest 0-3 paths.
  GraphBuilder b(4);
  b.AddWeightedEdge(0, 1, 1.0);
  b.AddWeightedEdge(0, 2, 1.0);
  b.AddWeightedEdge(1, 3, 2.0);
  b.AddWeightedEdge(2, 3, 2.0);
  return std::move(b.Build()).value();
}

TEST(DijkstraSpdTest, DiamondTiedPaths) {
  const CsrGraph g = WeightedDiamond();
  DijkstraSpd engine(g);
  engine.Run(0);
  const auto& dag = engine.dag();
  EXPECT_DOUBLE_EQ(dag.wdist[3], 3.0);
  EXPECT_EQ(dag.sigma[3], 2u);
  EXPECT_EQ(Parents(engine, 3).size(), 2u);
  EXPECT_EQ(dag.sigma[1], 1u);
  EXPECT_EQ(Parents(engine, 1).size(), 1u);
  EXPECT_EQ(Parents(engine, 1)[0], 0u);
}

TEST(DijkstraSpdTest, WeightBreaksTie) {
  GraphBuilder b(4);
  b.AddWeightedEdge(0, 1, 1.0);
  b.AddWeightedEdge(0, 2, 1.0);
  b.AddWeightedEdge(1, 3, 2.0);
  b.AddWeightedEdge(2, 3, 2.5);  // now the path via 1 is strictly shorter
  const CsrGraph g = std::move(b.Build()).value();
  DijkstraSpd engine(g);
  engine.Run(0);
  EXPECT_DOUBLE_EQ(engine.dag().wdist[3], 3.0);
  EXPECT_EQ(engine.dag().sigma[3], 1u);
  ASSERT_EQ(Parents(engine, 3).size(), 1u);
  EXPECT_EQ(Parents(engine, 3)[0], 1u);
}

TEST(DijkstraSpdTest, UnitWeightsMatchBfsSigma) {
  const CsrGraph g = MakeGrid(5, 5);  // unweighted: Dijkstra treats w = 1
  DijkstraSpd engine(g);
  engine.Run(0);
  const auto& dag = engine.dag();
  EXPECT_DOUBLE_EQ(dag.wdist[24], 8.0);
  EXPECT_EQ(dag.sigma[24], 70u);  // C(8,4)
}

TEST(DijkstraSpdTest, ShortcutThroughManyLightEdges) {
  // Path of light edges beats one heavy direct edge.
  GraphBuilder b(4);
  b.AddWeightedEdge(0, 3, 10.0);
  b.AddWeightedEdge(0, 1, 1.0);
  b.AddWeightedEdge(1, 2, 1.0);
  b.AddWeightedEdge(2, 3, 1.0);
  const CsrGraph g = std::move(b.Build()).value();
  DijkstraSpd engine(g);
  engine.Run(0);
  EXPECT_DOUBLE_EQ(engine.dag().wdist[3], 3.0);
  EXPECT_EQ(engine.dag().sigma[3], 1u);
  EXPECT_EQ(Parents(engine, 3)[0], 2u);
}

TEST(DijkstraSpdTest, SettleOrderNonDecreasing) {
  const CsrGraph g = AssignUniformWeights(MakeBarabasiAlbert(100, 2, 5), 0.5,
                                          3.0, 11);
  DijkstraSpd engine(g);
  engine.Run(7);
  const auto& dag = engine.dag();
  for (std::size_t i = 1; i < dag.order.size(); ++i) {
    EXPECT_LE(dag.wdist[dag.order[i - 1]], dag.wdist[dag.order[i]] + 1e-12);
  }
}

TEST(DijkstraSpdTest, ReuseResetsState) {
  const CsrGraph g = AssignUniformWeights(MakePath(6), 1.0, 1.0, 1);
  DijkstraSpd engine(g);
  engine.Run(0);
  engine.Run(5);
  EXPECT_DOUBLE_EQ(engine.dag().wdist[0], 5.0);
  EXPECT_DOUBLE_EQ(engine.dag().wdist[5], 0.0);
  EXPECT_EQ(engine.dag().sigma[0], 1u);
}

TEST(DijkstraSpdTest, SigmaMatchesPredecessorSum) {
  const CsrGraph g =
      AssignUniformWeights(MakeErdosRenyiGnm(60, 150, 17), 1.0, 2.0, 19);
  DijkstraSpd engine(g);
  engine.Run(0);
  const auto& dag = engine.dag();
  for (VertexId v : dag.order) {
    if (v == 0) continue;
    SigmaCount pred_sum = 0;
    for (VertexId p : Parents(engine, v)) pred_sum += dag.sigma[p];
    EXPECT_EQ(dag.sigma[v], pred_sum);
  }
}

TEST(DijkstraSpdTest, DisconnectedUnreached) {
  GraphBuilder b(3);
  b.AddWeightedEdge(0, 1, 1.5);
  const CsrGraph g = std::move(b.Build()).value();
  DijkstraSpd engine(g);
  engine.Run(0);
  EXPECT_LT(engine.dag().wdist[2], 0.0);
  EXPECT_EQ(engine.dag().sigma[2], 0u);
  EXPECT_EQ(engine.dag().num_reached(), 2u);
}

}  // namespace
}  // namespace mhbc
