#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/source_sampler.h"

/// \file
/// Distance-proportional source sampler of Chehreghani [13] (§3.2 of the
/// paper): P[s] = d(s,r) / sum_u d(u,r) over s in V \ {r}. On undirected
/// graphs d(s,r) = d(r,s), the paper's form; on directed graphs only the
/// sources that reach r depend on it, so the weight is the distance *to*
/// r, read over the in-CSR.

namespace mhbc {

/// Estimates BC(r) with distance-proportional importance sampling.
///
/// Intuition from [13]: far-away sources tend to have higher dependency on
/// r than the uniform average, so weighting by distance reduces variance on
/// many topologies (and the estimator stays unbiased thanks to the
/// importance weights delta / (P[s] * n(n-1))).
///
/// Setup costs one distance pass to r (recorded in num_passes; cached
/// between calls with the same r); each sample costs one shortest-path
/// pass. A target no other vertex reaches lies on no shortest path, so
/// its estimate is exactly 0 and draws nothing.
///
/// The proposal table is rebuilt only when the target changes; Reset
/// leaves it alone (it is deterministic).
class DistanceProportionalSampler : public SourceSampler {
 public:
  DistanceProportionalSampler(const CsrGraph& graph, std::uint64_t seed,
                              DependencyOracle* shared_oracle = nullptr)
      : SourceSampler(graph, seed, shared_oracle) {}

  double Estimate(VertexId r, std::uint64_t num_samples) override;

 private:
  /// (Re)builds the distance table for target r (cached between calls with
  /// the same r). Records the distance pass with the oracle.
  void PrepareTarget(VertexId r);

  VertexId prepared_target_ = kInvalidVertex;
  std::vector<double> probabilities_;  // indexed by vertex, 0 at r
  /// Null when no other vertex reaches r.
  std::unique_ptr<DiscreteSampler> table_;
};

}  // namespace mhbc
