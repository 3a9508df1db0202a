#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/mh_chain.h"

namespace mhbc {
namespace {

TEST(SplitMix64Test, DeterministicSequence) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(SplitMix64(&s1), SplitMix64(&s2));
  }
}

TEST(SplitMix64Test, DistinctSeedsDiverge) {
  std::uint64_t s1 = 1, s2 = 2;
  EXPECT_NE(SplitMix64(&s1), SplitMix64(&s2));
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextBoundedApproximatelyUniform) {
  Rng rng(13);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<int>(kBuckets), 600);
  }
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(19);
  double sum = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(23);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = rng.NextInRange(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, CertainBernoulliDrawsNothing) {
  // An acceptance probability of 0 or 1 draws no number, so a caller
  // drawing from one positional stream finds its next value at a position
  // that depends on p. The MH samplers no longer depend on this: they
  // draw each step's accept uniform from a counter stream of its own
  // (CounterRng). Probabilities outside [0, 1] clamp to the same no-draw
  // case.
  for (double p : {0.0, 1.0, -0.5, 2.0}) {
    Rng rng(0xBE);
    Rng twin(0xBE);
    EXPECT_EQ(rng.NextBernoulli(p), p >= 1.0);
    EXPECT_EQ(rng.NextU64(), twin.NextU64()) << "p=" << p;
  }
  // An uncertain trial does draw: the streams part.
  Rng rng(0xBE);
  Rng twin(0xBE);
  rng.NextBernoulli(0.5);
  EXPECT_NE(rng.NextU64(), twin.NextU64());
}

TEST(RngTest, BernoulliRate) {
  Rng rng(31);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(37);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(43);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{5};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{5});
}

TEST(RngTest, ForkDivergesFromParent) {
  Rng parent(47);
  Rng child = parent.Fork(0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.NextU64() == child.NextU64());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkLabelsDiffer) {
  Rng p1(51), p2(51);
  Rng c1 = p1.Fork(1);
  Rng c2 = p2.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.NextU64() == c2.NextU64());
  EXPECT_EQ(same, 0);
}

/// First 64 bits of the counter stream at (seed, run, stream, step).
std::uint64_t CounterDraw(std::uint64_t seed, std::uint64_t run,
                          std::uint64_t stream, std::uint64_t step) {
  CounterRng streams(seed);
  for (std::uint64_t r = 0; r <= run; ++r) streams.BeginRun();
  return streams.At(stream, step)->NextU64();
}

TEST(CounterRngTest, RepeatsForFixedCoordinates) {
  CounterRng streams(0xC0FFEE);
  streams.BeginRun();
  streams.BeginRun();
  std::vector<std::uint64_t> first;
  Rng* rng = streams.At(3, 17);
  for (int i = 0; i < 8; ++i) first.push_back(rng->NextU64());
  // Other coordinates in between do not move the stream at (3, 17).
  streams.At(4, 17)->NextU64();
  streams.At(3, 18)->NextU64();
  Rng* again = streams.At(3, 17);
  for (std::uint64_t value : first) EXPECT_EQ(again->NextU64(), value);
  EXPECT_EQ(CounterDraw(0xC0FFEE, 1, 3, 17), first[0]);
}

TEST(CounterRngTest, ResetRewindsTheRunCounter) {
  CounterRng streams(5);
  streams.BeginRun();
  streams.BeginRun();
  const std::uint64_t run1 = streams.At(0, 0)->NextU64();
  streams.Reset(5);
  streams.BeginRun();
  EXPECT_EQ(streams.At(0, 0)->NextU64(), CounterDraw(5, 0, 0, 0));
  streams.BeginRun();
  EXPECT_EQ(streams.At(0, 0)->NextU64(), run1);
}

TEST(CounterRngTest, ChangingAnyOneCoordinateChangesTheStream) {
  const std::uint64_t base = CounterDraw(11, 2, 1, 40);
  EXPECT_NE(CounterDraw(12, 2, 1, 40), base);
  EXPECT_NE(CounterDraw(11, 3, 1, 40), base);
  EXPECT_NE(CounterDraw(11, 2, 2, 40), base);
  EXPECT_NE(CounterDraw(11, 2, 1, 41), base);
  // Neighboring steps of one stream never repeat a value.
  CounterRng streams(11);
  streams.BeginRun();
  std::set<std::uint64_t> seen;
  for (std::uint64_t step = 0; step < 10'000; ++step) {
    seen.insert(streams.At(kProposalStream, step)->NextU64());
  }
  EXPECT_EQ(seen.size(), 10'000u);
}

TEST(CounterRngTest, BoundedDrawsPassChiSquare) {
  // The first NextBounded(10) of each of 100k steps: the chi-square
  // statistic over 10 cells has 9 degrees of freedom, and 27.88 is its
  // 0.999 quantile.
  constexpr std::uint64_t kCells = 10;
  constexpr std::uint64_t kSteps = 100'000;
  CounterRng streams(0x5eed);
  streams.BeginRun();
  std::vector<double> counts(kCells, 0.0);
  for (std::uint64_t step = 0; step < kSteps; ++step) {
    counts[streams.At(kProposalStream, step)->NextBounded(kCells)] += 1.0;
  }
  const double expected = static_cast<double>(kSteps) / kCells;
  double chi_square = 0.0;
  for (double count : counts) {
    chi_square += (count - expected) * (count - expected) / expected;
  }
  EXPECT_LT(chi_square, 27.88);
}

TEST(CounterRngTest, ProposalAndAcceptStreamsUncorrelated) {
  // Pearson correlation of the two streams' uniforms at the same step;
  // under independence it is about N(0, 1/N), so 4/sqrt(N) bounds it.
  constexpr int kSteps = 100'000;
  CounterRng streams(0xACCE97);
  streams.BeginRun();
  double sum_p = 0.0, sum_a = 0.0, sum_pp = 0.0, sum_aa = 0.0, sum_pa = 0.0;
  for (int step = 1; step <= kSteps; ++step) {
    const double p = streams.At(kProposalStream, step)->NextDouble();
    const double a = streams.At(kAcceptStream, step)->NextDouble();
    sum_p += p;
    sum_a += a;
    sum_pp += p * p;
    sum_aa += a * a;
    sum_pa += p * a;
  }
  const double n = kSteps;
  const double cov = sum_pa / n - (sum_p / n) * (sum_a / n);
  const double var_p = sum_pp / n - (sum_p / n) * (sum_p / n);
  const double var_a = sum_aa / n - (sum_a / n) * (sum_a / n);
  const double correlation = cov / std::sqrt(var_p * var_a);
  EXPECT_LT(std::abs(correlation), 4.0 / std::sqrt(n));
}

TEST(SampleDiscreteTest, SingletonAlwaysChosen) {
  Rng rng(53);
  std::vector<double> w{3.0};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(SampleDiscrete(w, &rng), 0u);
}

TEST(SampleDiscreteTest, ZeroWeightNeverChosen) {
  Rng rng(59);
  std::vector<double> w{0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 1000; ++i) {
    const std::size_t pick = SampleDiscrete(w, &rng);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(SampleDiscreteTest, ProportionsRoughlyRespected) {
  Rng rng(61);
  std::vector<double> w{1.0, 3.0};
  int ones = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) ones += (SampleDiscrete(w, &rng) == 1);
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.75, 0.02);
}

TEST(DiscreteSamplerTest, ProbabilityMatchesWeights) {
  DiscreteSampler sampler({1.0, 2.0, 0.0, 1.0});
  EXPECT_DOUBLE_EQ(sampler.Probability(0), 0.25);
  EXPECT_DOUBLE_EQ(sampler.Probability(1), 0.5);
  EXPECT_DOUBLE_EQ(sampler.Probability(2), 0.0);
  EXPECT_DOUBLE_EQ(sampler.Probability(3), 0.25);
}

TEST(DiscreteSamplerTest, ZeroWeightIndexNeverSampled) {
  DiscreteSampler sampler({1.0, 0.0, 1.0});
  Rng rng(67);
  for (int i = 0; i < 2000; ++i) EXPECT_NE(sampler.Sample(&rng), 1u);
}

TEST(DiscreteSamplerTest, EmpiricalFrequenciesTrackProbabilities) {
  DiscreteSampler sampler({2.0, 5.0, 3.0});
  Rng rng(71);
  std::vector<int> counts(3, 0);
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.2, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.5, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.3, 0.01);
}

}  // namespace
}  // namespace mhbc
