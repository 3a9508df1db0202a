#pragma once

#include <cstdint>
#include <vector>

#include "baselines/source_sampler.h"

/// \file
/// Geisberger-Sanders-Schultes linear-scaling source sampler ([17], §3.2 of
/// the paper). Uniform source sampling, but each pair contribution is
/// scaled by d(s,v)/d(s,t) so that vertices do not profit from being near a
/// sampled source — the bias the plain Brandes-Pich scheme suffers from.
///
/// Unbiasedness: for an ordered pair (s,t) and an interior v, the two
/// directions contribute d(s,v)/d(s,t) + d(t,v)/d(t,s) = 1 (v lies on a
/// shortest path), so 2x the linear-scaled dependency summed over uniform
/// sources has expectation equal to the raw betweenness.

namespace mhbc {

/// Linear-scaling betweenness estimator for a single vertex (unweighted
/// graphs only). Each sample runs one BFS pass on the oracle
/// (DependencyOracle::Pass: counted, never memoized) and sweeps its DAG
/// with the scaled recursion; estimates are bit-identical across the
/// oracle's kernels, α/β settings and thread counts (the scaled sweep
/// folds each level's edge slice like the dependency sweep,
/// sp/dependency.h).
class GeisbergerSampler : public SourceSampler {
 public:
  GeisbergerSampler(const CsrGraph& graph, std::uint64_t seed,
                    DependencyOracle* shared_oracle = nullptr);

  /// Paper-normalized estimate of BC(r) from `num_samples` uniform sources.
  /// Per sample: one BFS pass + one linear-scaled accumulation (O(|E|)).
  double Estimate(VertexId r, std::uint64_t num_samples) override;

 private:
  /// Linear-scaled dependency of source s on every vertex, via the
  /// generalized recursion A(v) = sum_{w: v in P_s(w)} sigma_sv/sigma_sw *
  /// (1/d(s,w) + A(w)), delta'(v) = d(s,v) * A(v).
  const std::vector<double>& ScaledDependencies(VertexId s);

  std::vector<double> aux_;     // A(v)
  std::vector<double> scaled_;  // delta'(v)
  std::vector<double> coeff_;   // (1/d(s,w) + A(w)) / sigma_sw, per level
  std::vector<VertexId> touched_;
};

}  // namespace mhbc
