#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace mhbc {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One hashing round of the counter streams: folds `word` into the running
// hash. For a fixed word this is a bijection of `hash` (xor, then the
// SplitMix64 increment and finalizer), which is what makes tuples that
// differ in one coordinate hash apart.
std::uint64_t Absorb(std::uint64_t hash, std::uint64_t word) {
  std::uint64_t state = hash ^ word;
  return SplitMix64(&state);
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  // All-zero state is the one invalid xoshiro state; SplitMix64 cannot
  // produce four zero outputs in a row, but keep the guard explicit.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  MHBC_DCHECK(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  std::uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t threshold = (0 - bound) % bound;
    while (l < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  MHBC_DCHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span == 0 means the full 2^64 range: raw bits are already uniform.
  if (span == 0) return static_cast<std::int64_t>(NextU64());
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   NextBounded(span));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  spare_gaussian_ = radius * std::sin(angle);
  has_spare_gaussian_ = true;
  return radius * std::cos(angle);
}

Rng Rng::Fork(std::uint64_t label) {
  // Mix the parent's stream position with the label so forks from the same
  // parent at different times, or with different labels, diverge.
  std::uint64_t mix = NextU64();
  std::uint64_t sm = mix ^ (label * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  return Rng(SplitMix64(&sm));
}

void CounterRng::Reset(std::uint64_t seed) {
  seed_ = seed;
  next_run_ = 0;
}

void CounterRng::BeginRun() {
  run_key_ = Absorb(Absorb(0, seed_), next_run_);
  ++next_run_;
}

Rng* CounterRng::At(std::uint64_t stream, std::uint64_t step) {
  MHBC_DCHECK(next_run_ > 0);
  rng_ = Rng(Absorb(Absorb(run_key_, stream), step));
  return &rng_;
}

std::size_t SampleDiscrete(const std::vector<double>& weights, Rng* rng) {
  MHBC_DCHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    MHBC_DCHECK(w >= 0.0);
    total += w;
  }
  MHBC_DCHECK(total > 0.0);
  double target = rng->NextDouble() * total;
  double acc = 0.0;
  std::size_t last_positive = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) last_positive = i;
    acc += weights[i];
    if (target < acc) return i;
  }
  // Floating-point slack at the right edge: return the last feasible index.
  return last_positive;
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  MHBC_DCHECK(!weights.empty());
  cumulative_.resize(weights.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    MHBC_DCHECK(weights[i] >= 0.0);
    acc += weights[i];
    cumulative_[i] = acc;
  }
  total_ = acc;
  MHBC_DCHECK(total_ > 0.0);
}

std::size_t DiscreteSampler::Sample(Rng* rng) const {
  const double target = rng->NextDouble() * total_;
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), target);
  if (it == cumulative_.end()) --it;
  return static_cast<std::size_t>(it - cumulative_.begin());
}

double DiscreteSampler::Probability(std::size_t i) const {
  MHBC_DCHECK(i < cumulative_.size());
  const double prev = (i == 0) ? 0.0 : cumulative_[i - 1];
  return (cumulative_[i] - prev) / total_;
}

}  // namespace mhbc
