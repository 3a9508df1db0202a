#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/source_sampler.h"

/// \file
/// The *optimal* sampler of Chehreghani [13] (paper Eq. 5): sources drawn
/// with P_r[v] = delta_{v.}(r) / sum_u delta_{u.}(r).
///
/// Building this distribution requires the exact dependency profile — i.e.
/// the betweenness of r itself — so it is only usable as a validation
/// yardstick (importance weighting gives a zero-variance estimator). It is
/// also the *stationary distribution* of the paper's MH sampler, which is
/// how the library's tests verify the chain: the MH visit histogram must
/// converge to OptimalSampler::probabilities().

namespace mhbc {

/// Zero-variance reference sampler (needs O(nm) setup per target). The
/// Eq. 5 table is rebuilt only on target change (n recorded setup passes).
class OptimalSampler : public SourceSampler {
 public:
  OptimalSampler(const CsrGraph& graph, std::uint64_t seed,
                 DependencyOracle* shared_oracle = nullptr)
      : SourceSampler(graph, seed, shared_oracle) {}

  /// Paper-normalized estimate (equal to the exact value for any
  /// num_samples >= 1, up to floating-point accumulation).
  double Estimate(VertexId r, std::uint64_t num_samples) override;

  /// The exact stationary distribution P_r[.] of Eq. 5 for target r
  /// (computes the dependency profile on first use per target).
  const std::vector<double>& probabilities(VertexId r);

 private:
  void PrepareTarget(VertexId r);

  VertexId prepared_target_ = kInvalidVertex;
  std::vector<double> probabilities_;
  double raw_betweenness_ = 0.0;  // normalization constant of Eq. 5
  std::unique_ptr<DiscreteSampler> table_;
};

}  // namespace mhbc
