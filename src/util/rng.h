#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/common.h"

/// \file
/// Deterministic pseudo-random number generation.
///
/// Every randomized component in the library (samplers, generators,
/// benchmarks) takes an explicit 64-bit seed and derives its stream from
/// this Rng, so every experiment harness (bench/) is reproducible
/// bit-for-bit. The core generator is xoshiro256**, seeded via SplitMix64
/// per the reference recommendation; both are tiny, fast, and ours (no
/// dependence on unspecified std:: distribution implementations).
/// CounterRng gives the MH samplers streams addressed by step instead of
/// by position, so a chain's proposals do not depend on its passes.

namespace mhbc {

/// SplitMix64 step: used for seeding and as a cheap stateless mixer.
std::uint64_t SplitMix64(std::uint64_t* state);

/// xoshiro256** generator with explicit-seed determinism.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64 random bits.
  std::uint64_t NextU64();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 random bits.
  double NextDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Uniform VertexId in [0, n). Requires n > 0.
  VertexId NextVertex(VertexId n) {
    return static_cast<VertexId>(NextBounded(n));
  }

  /// Standard normal via Box-Muller (used only by weight generators).
  double NextGaussian();

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (std::size_t i = v->size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derives an independent child stream; distinct labels give streams that
  /// do not overlap in practice (distinct SplitMix64 trajectories).
  Rng Fork(std::uint64_t label);

 private:
  std::array<std::uint64_t, 4> s_;
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Counter-based random streams, as in counter-based generators (Salmon et
/// al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011): the
/// generator for step `step` of stream `stream` is an Rng seeded by hashing
/// (seed, run, stream, step) through SplitMix64, so every value it draws is
/// a pure function of those four numbers and never of what other steps
/// drew. Each hashing round is a bijection of the running hash, so changing
/// any one of the four always changes the generator.
///
/// `run` is a per-instance counter: BeginRun() starts run 0 after
/// construction or Reset(seed), then run 1, and so on, so the runs of one
/// instance draw afresh while instances reset to one seed draw alike.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed) { Reset(seed); }

  /// Rewinds to before run 0 under `seed`.
  void Reset(std::uint64_t seed);

  /// Starts the next run.
  void BeginRun();

  /// The generator for (seed, current run, stream, step), freshly seeded.
  /// It stays valid until the next At call on this instance. Requires a
  /// BeginRun since construction or Reset.
  Rng* At(std::uint64_t stream, std::uint64_t step);

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t next_run_ = 0;
  std::uint64_t run_key_ = 0;  // hash of (seed, run)
  Rng rng_{0};
};

/// Samples an index from unnormalized non-negative weights in O(n).
/// Requires at least one strictly positive weight.
std::size_t SampleDiscrete(const std::vector<double>& weights, Rng* rng);

/// Cumulative-table discrete sampler: O(n) build, O(log n) per draw.
/// Used by baseline samplers that draw many times from a fixed distribution.
class DiscreteSampler {
 public:
  /// `weights` are unnormalized, non-negative, with a positive sum.
  explicit DiscreteSampler(const std::vector<double>& weights);

  /// Draws an index with probability proportional to its weight.
  std::size_t Sample(Rng* rng) const;

  /// Probability of index i under the normalized distribution.
  double Probability(std::size_t i) const;

  std::size_t size() const { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;  // inclusive prefix sums
  double total_;
};

}  // namespace mhbc
