#pragma once

#include <cstdint>
#include <memory>

#include "exact/dependency_oracle.h"
#include "graph/csr_graph.h"
#include "util/rng.h"

/// \file
/// The one interface of the iid source samplers (uniform, distance, rk,
/// geisberger, and the optimal reference sampler). Each draw picks a
/// source independently of the others and costs one shortest-path pass on
/// the sampler's DependencyOracle, so every sampler's work is counted in
/// one place. The engine keeps one sampler per estimator kind, built by
/// the registry's factory on the engine's oracle (centrality/engine.h).

namespace mhbc {

/// iid source sampler bound to one graph and one pass engine.
///
/// Reuse contract: an instance may serve any number of Estimate calls for
/// any targets. Consecutive calls continue one random stream, so splitting
/// a budget into batches and weight-averaging the batch estimates equals a
/// single full-budget call. Reset(seed) rewinds the stream so a cached
/// instance reproduces a fresh one bit-for-bit.
class SourceSampler {
 public:
  virtual ~SourceSampler();

  SourceSampler(const SourceSampler&) = delete;
  SourceSampler& operator=(const SourceSampler&) = delete;

  /// Paper-normalized estimate of BC(r) from `num_samples` draws.
  virtual double Estimate(VertexId r, std::uint64_t num_samples) = 0;

  /// Rewinds the random stream to that of a fresh sampler seeded `seed`.
  void Reset(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Shortest-path passes run through this sampler's oracle, setup passes
  /// included (a shared oracle also counts its other users' work).
  std::uint64_t num_passes() const { return oracle_->num_passes(); }

 protected:
  /// The graph must outlive the sampler. A non-null `shared_oracle` (bound
  /// to the same graph, outliving the sampler) runs every pass, and its
  /// memo can serve repeated sources; otherwise the sampler owns an oracle
  /// with default pass options and no memo.
  SourceSampler(const CsrGraph& graph, std::uint64_t seed,
                DependencyOracle* shared_oracle);

  const CsrGraph* graph_;
  DependencyOracle* oracle_;
  Rng rng_;

 private:
  std::unique_ptr<DependencyOracle> owned_oracle_;
};

/// Builds a kind's sampler on an engine's oracle (the estimator registry
/// stores one per iid kind).
using SourceSamplerFactory = std::unique_ptr<SourceSampler> (*)(
    const CsrGraph& graph, DependencyOracle* oracle);

}  // namespace mhbc
