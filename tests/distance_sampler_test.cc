#include "baselines/distance_sampler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exact/brandes.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace mhbc {
namespace {

TEST(DistanceSamplerTest, ConvergesToExact) {
  const CsrGraph g = MakeBarbell(5, 3);
  const VertexId mid = 6;  // middle bridge vertex
  const double exact = ExactBetweennessSingle(g, mid);
  DistanceProportionalSampler sampler(g, 3);
  EXPECT_NEAR(sampler.Estimate(mid, 20'000), exact, 0.02 * exact + 0.01);
}

TEST(DistanceSamplerTest, UnbiasedAcrossRepetitions) {
  const CsrGraph g = MakeGrid(4, 5);
  const VertexId center = 2 * 5 + 2;
  const double exact = ExactBetweennessSingle(g, center);
  DistanceProportionalSampler sampler(g, 5);
  double acc = 0.0;
  constexpr int kReps = 400;
  for (int i = 0; i < kReps; ++i) acc += sampler.Estimate(center, 10);
  EXPECT_NEAR(acc / kReps, exact, 0.05 * exact + 0.01);
}

TEST(DistanceSamplerTest, DeterministicForSeed) {
  const CsrGraph g = MakeBarabasiAlbert(50, 2, 7);
  DistanceProportionalSampler a(g, 99);
  DistanceProportionalSampler b(g, 99);
  EXPECT_DOUBLE_EQ(a.Estimate(4, 150), b.Estimate(4, 150));
}

TEST(DistanceSamplerTest, NeverSamplesTargetItself) {
  // The target has distance 0 so it carries zero proposal mass; the
  // estimate must be finite (no division by its zero probability).
  const CsrGraph g = MakeWheel(12);
  DistanceProportionalSampler sampler(g, 13);
  const double est = sampler.Estimate(0, 2'000);
  EXPECT_TRUE(std::isfinite(est));
}

TEST(DistanceSamplerTest, WeightedGraphSupport) {
  const CsrGraph wg = AssignUniformWeights(MakeGrid(4, 4), 1.0, 1.0, 15);
  const CsrGraph g = MakeGrid(4, 4);
  const double exact = ExactBetweennessSingle(g, 5);
  DistanceProportionalSampler sampler(wg, 17);
  EXPECT_NEAR(sampler.Estimate(5, 5'000), exact, 0.05);
}

TEST(DistanceSamplerTest, TargetSwitchRebuildsTable) {
  const CsrGraph g = MakePath(9);
  DistanceProportionalSampler sampler(g, 19);
  const double at_center = sampler.Estimate(4, 3'000);
  const double at_edge = sampler.Estimate(1, 3'000);
  const double exact_center = ExactBetweennessSingle(g, 4);
  const double exact_edge = ExactBetweennessSingle(g, 1);
  EXPECT_NEAR(at_center, exact_center, 0.05);
  EXPECT_NEAR(at_edge, exact_edge, 0.05);
}

TEST(DistanceSamplerTest, TargetReachingNothingEstimatesZero) {
  // Vertex 3 has no edges, so it lies on no shortest path: BC is exactly
  // 0, and its distance table has no source to draw.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const CsrGraph g = std::move(builder.Build()).value();
  DistanceProportionalSampler sampler(g, 21);
  EXPECT_EQ(sampler.Estimate(3, 50), 0.0);
  EXPECT_EQ(sampler.num_passes(), 1u);  // the distance pass, no draws
  // The sampler still serves targets that reach something.
  EXPECT_GT(sampler.Estimate(1, 50), 0.0);
}

TEST(DistanceSamplerTest, DirectedPathDrawsSourcesThatReachTheTarget) {
  // On 0→1→2→3 only the sources that reach r depend on it, so they must
  // carry the proposal mass: weights are distances *to* r. Vertex 1's one
  // such source is 0, whose dependency on 1 is exact, so the estimate is
  // BC(1) = 1/6 exactly. Vertex 2 has two sources at different distances:
  // unbiased, not exact. Weighting by the distance *from* r draws only
  // sources r reaches, which never depend on it, and estimates 0.
  GraphBuilder builder(4);
  builder.set_directed(true);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  const CsrGraph g = std::move(builder.Build()).value();
  const double exact_1 = ExactBetweennessSingle(g, 1);
  const double exact_2 = ExactBetweennessSingle(g, 2);
  EXPECT_DOUBLE_EQ(exact_1, 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(exact_2, 1.0 / 6.0);
  DistanceProportionalSampler sampler(g, 23);
  EXPECT_DOUBLE_EQ(sampler.Estimate(1, 50), exact_1);
  EXPECT_NEAR(sampler.Estimate(2, 4'000), exact_2, 0.01);
}

}  // namespace
}  // namespace mhbc
