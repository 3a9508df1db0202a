#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"
#include "sp/bfs_spd.h"
#include "util/rng.h"

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

/// Linear-scaling betweenness estimator for a single vertex.
class GeisbergerSampler {
 public:
  /// `spd` configures the BFS kernel; estimates are bit-identical across
  /// kernels, α/β settings and thread counts (the scaled sweep folds each
  /// level's edge slice like the dependency sweep, sp/dependency.h).
  explicit GeisbergerSampler(const CsrGraph& graph, std::uint64_t seed,
                             SpdOptions spd = SpdOptions());

  /// Paper-normalized estimate of BC(r) from `num_samples` uniform sources.
  /// Per sample: one BFS pass + one linear-scaled accumulation (O(|E|)).
  double Estimate(VertexId r, std::uint64_t num_samples);

  /// Rewinds the random stream to that of a fresh sampler seeded `seed`
  /// (reuse contract: consecutive Estimate calls continue one stream).
  void Reset(std::uint64_t seed) { rng_ = Rng(seed); }

  std::uint64_t num_passes() const { return num_passes_; }

 private:
  /// Linear-scaled dependency of source s on every vertex, via the
  /// generalized recursion A(v) = sum_{w: v in P_s(w)} sigma_sv/sigma_sw *
  /// (1/d(s,w) + A(w)), delta'(v) = d(s,v) * A(v).
  const std::vector<double>& ScaledDependencies(VertexId s);

  const CsrGraph* graph_;
  BfsSpd bfs_;
  Rng rng_;
  std::vector<double> aux_;     // A(v)
  std::vector<double> scaled_;  // delta'(v)
  std::vector<double> coeff_;   // (1/d(s,w) + A(w)) / sigma_sw, per level
  std::vector<VertexId> touched_;
  std::uint64_t num_passes_ = 0;
};

}  // namespace mhbc
