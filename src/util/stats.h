#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// Summary statistics, error metrics, and rank correlation used by the
/// experiment harnesses (bench/) and tests.

namespace mhbc {

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance (0 for fewer than two observations).
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// min{1, a/b} under the library-wide zero conventions shared by the MH
/// acceptance ratios and the relative betweenness score (Eq. 23):
/// ClippedRatio(a, a) == 1 even at a == 0, and b == 0 clips to 1. Lives in
/// util so both exact/ and core/ can use it without a layering cycle.
double ClippedRatio(double a, double b);

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// Unbiased sample standard deviation; 0 for fewer than two values.
double StdDev(const std::vector<double>& xs);

/// Linear-interpolation quantile, q in [0,1]. Sorts a copy.
double Quantile(std::vector<double> xs, double q);

/// Mean absolute error between parallel vectors (must be equal length).
double MeanAbsoluteError(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Maximum absolute error between parallel vectors.
double MaxAbsoluteError(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Mean of |a_i - b_i| / max(b_i, floor); b is the reference. Entries whose
/// reference magnitude is below `floor` are compared against `floor` to
/// avoid division blow-ups on near-zero true scores.
double MeanRelativeError(const std::vector<double>& a,
                         const std::vector<double>& b, double floor);

/// Spearman rank correlation of two equal-length vectors (average ranks on
/// ties). Returns 0 for inputs shorter than 2 or with zero rank variance.
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

/// Kendall tau-b rank correlation, O(n^2) pair scan (fine for the |R|-sized
/// rankings the harnesses compare). Returns 0 for degenerate inputs.
double KendallTau(const std::vector<double>& a, const std::vector<double>& b);

/// Pearson correlation; 0 for degenerate inputs.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Average ranks (1-based, ties share the average of their positions).
std::vector<double> AverageRanks(const std::vector<double>& xs);

/// Chi-square statistic of observed counts against expected probabilities:
/// sum over i of (obs_i - N*p_i)^2 / (N*p_i), skipping cells with p_i == 0
/// (their observed count must be 0, enforced by MHBC_DCHECK).
double ChiSquareStatistic(const std::vector<std::uint64_t>& observed,
                          const std::vector<double>& probabilities);

/// Total variation distance between an empirical distribution given by
/// counts and a reference probability vector (same length).
double TotalVariationDistance(const std::vector<std::uint64_t>& observed,
                              const std::vector<double>& probabilities);

}  // namespace mhbc
