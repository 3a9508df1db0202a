#include <gtest/gtest.h>

#include <algorithm>

#include "centrality/engine.h"
#include "exact/brandes.h"
#include "graph/generators.h"

namespace mhbc {
namespace {

TEST(TopKTest, FindsBridgeAndGateways) {
  const CsrGraph g = MakeBarbell(6, 1);
  const auto result = BetweennessEngine(g).TopK(3, 0.03, 0.1, 9);
  ASSERT_TRUE(result.ok());
  const auto& top = result.value();
  ASSERT_EQ(top.size(), 3u);
  // Bridge (6) must rank first; gateways (5, 7) fill the next two slots.
  EXPECT_EQ(top[0].vertex, 6u);
  std::vector<VertexId> rest{top[1].vertex, top[2].vertex};
  std::sort(rest.begin(), rest.end());
  EXPECT_EQ(rest[0], 5u);
  EXPECT_EQ(rest[1], 7u);
  EXPECT_GT(top[0].estimate, top[1].estimate);
}

TEST(TopKTest, EstimatesCloseToExactScores) {
  const CsrGraph g = MakeConnectedCaveman(5, 8);
  const double eps = 0.03;
  const auto result = BetweennessEngine(g).TopK(5, eps, 0.1, 11);
  ASSERT_TRUE(result.ok());
  const auto exact = ExactBetweenness(g);
  for (const TopKEntry& entry : result.value()) {
    EXPECT_NEAR(entry.estimate, exact[entry.vertex], 2 * eps);
  }
}

TEST(TopKTest, KEqualsNReturnsEveryVertex) {
  const CsrGraph g = MakeCycle(8);
  const auto result = BetweennessEngine(g).TopK(8, 0.1, 0.2, 13);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 8u);
}

TEST(TopKTest, ValidatesArguments) {
  const CsrGraph g = MakeCycle(8);
  BetweennessEngine engine(g);
  EXPECT_FALSE(engine.TopK(0).ok());
  EXPECT_FALSE(engine.TopK(9).ok());
  EXPECT_FALSE(engine.TopK(2, /*eps=*/0.0).ok());
  EXPECT_FALSE(engine.TopK(2, 0.1, /*delta=*/1.5).ok());
  const CsrGraph trivial = MakePath(1);
  EXPECT_FALSE(BetweennessEngine(trivial).TopK(1).ok());
}

TEST(TopKTest, WeightedGraphSupported) {
  const CsrGraph wg = AssignUniformWeights(MakeBarbell(5, 1), 1.0, 1.0, 17);
  const auto result = BetweennessEngine(wg).TopK(1, 0.05, 0.1, 19);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()[0].vertex, 5u);  // the bridge
}

}  // namespace
}  // namespace mhbc
