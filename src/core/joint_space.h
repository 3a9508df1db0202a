#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/diagnostics.h"
#include "core/mh_chain.h"
#include "exact/dependency_oracle.h"
#include "graph/csr_graph.h"
#include "util/rng.h"

/// \file
/// The paper's joint-space Metropolis-Hastings sampler (§4.3): a chain on
/// R x V(G) estimating, for every ordered pair (ri, rj) in R, the relative
/// betweenness score BC_{rj}(ri) (Eq. 23) and the betweenness ratio
/// BC(ri)/BC(rj) (Eq. 22).
///
/// State: (r, v). Proposal: fresh uniform r' in R and v' in V(G). The move
/// is accepted with min{1, delta_{v'.}(r') / delta_{v.}(r)} (Eq. 17), which
/// gives the stationary distribution of Eq. 18.
///
/// A key implementation choice: one shortest-path pass from v' yields the
/// whole dependency vector delta_{v'.}(.), so every sample contributes its
/// clipped ratios min{1, delta_v(ri)/delta_v(rj)} for *all* pairs at no
/// extra pass cost. Per iteration: exactly one pass, as in §4.2.
///
/// Random-stream layout: as in the single-space chain
/// (core/mh_betweenness.h), the accept test draws a uniform only when its
/// probability lies strictly inside (0, 1) — Rng::NextBernoulli draws
/// nothing at p <= 0 or p >= 1 — so the stream position of step t+1's
/// proposal (r', v') depends on pass t. Computing passes ahead of the
/// chain therefore needs a separate proposal stream (a new determinism
/// key) or speculation.
///
/// This is the Bennett acceptance-ratio construction from statistical
/// physics ([5]) that the paper imports: ratios of normalizing constants
/// (here: betweenness scores) from per-space clipped-ratio averages.

namespace mhbc {

/// Knobs for a joint-space run.
struct JointOptions {
  std::uint64_t seed = 0x5eed;
  /// Iterations to discard (paper needs none; ablation knob).
  std::uint64_t burn_in = 0;
  /// Record the (r-index, v) trace (memory O(T)).
  bool record_trace = false;
};

/// Outcome of a joint-space run over the vertex set R.
struct JointResult {
  /// relative[j][i] estimates BC_{rj}(ri) (Eq. 23): the average over
  /// samples with r-component rj of min{1, delta_v(ri)/delta_v(rj)}.
  /// relative[j][j] == 1 by construction.
  std::vector<std::vector<double>> relative;
  /// ratio[i][j] estimates BC(ri)/BC(rj) via Eq. 22:
  /// relative[j][i] / relative[i][j]. NaN when the denominator average is
  /// empty (an r-component never visited — flagged by `undersampled`).
  std::vector<std::vector<double>> ratio;
  /// Number of samples whose r-component was r_k (|M(k)| in the paper).
  std::vector<std::uint64_t> samples_per_target;
  /// True if some target in R was never visited (T too small for |R|).
  bool undersampled = false;
  ChainDiagnostics diagnostics;
  /// Chain trace as (index into R, vertex) pairs (only when record_trace).
  std::vector<std::pair<std::size_t, VertexId>> trace;

  /// Ranking scores: score[i] = sum over j != i of 1 if ratio[i][j] >= 1.
  /// A simple Copeland-style aggregate for ranking R by betweenness
  /// (application use case from §1). Computed by the sampler.
  std::vector<double> copeland_scores;
};

/// Joint-space MH estimator for relative betweenness over a set R.
///
/// Reuse contract: one instance may run any number of chains (each Run is
/// a fresh chain continuing the instance's random stream); Reset(seed)
/// rewinds the stream so a cached instance reproduces a fresh one.
class JointSpaceSampler {
 public:
  /// `targets` (the paper's R) must hold >= 2 distinct valid vertex ids.
  /// A non-null `shared_oracle` (bound to the same graph, outliving the
  /// sampler) replaces the internally owned one; its memo can serve
  /// repeated chain states without re-running passes.
  JointSpaceSampler(const CsrGraph& graph, std::vector<VertexId> targets,
                    JointOptions options,
                    DependencyOracle* shared_oracle = nullptr);

  /// Runs a fresh chain of `iterations` MH steps.
  JointResult Run(std::uint64_t iterations);

  /// Rewinds the random stream to that of a fresh sampler seeded `seed`.
  void Reset(std::uint64_t seed) {
    options_.seed = seed;
    rng_ = Rng(seed);
  }

  const std::vector<VertexId>& targets() const { return targets_; }

  std::uint64_t num_passes() const { return oracle_->num_passes(); }

 private:
  const CsrGraph* graph_;
  std::vector<VertexId> targets_;
  JointOptions options_;
  std::unique_ptr<DependencyOracle> owned_oracle_;
  DependencyOracle* oracle_;
  Rng rng_;
};

}  // namespace mhbc
