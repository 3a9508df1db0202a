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
/// The paper's single-space Metropolis-Hastings betweenness sampler (§4.2).
///
/// A Markov chain on V(G): from state v, propose v' (uniformly in the
/// paper), accept with min{1, delta_{v'.}(r) / delta_{v.}(r)} (Eq. 6). The
/// stationary distribution is the optimal source distribution of [13]
/// (Eq. 5). The betweenness estimate (Eq. 7) averages
/// f(v) = delta_{v.}(r) / (n-1) over the chain's T+1 states (a rejected
/// iteration re-counts the held state, which is what dividing by T+1
/// requires).
///
/// Each iteration costs exactly one shortest-path pass (for the proposal;
/// the current state's dependency is cached), so T iterations cost T + 1
/// passes — the "worst case time complexity of processing each sample is
/// O(|E|)" claim of §4.2.
///
/// Random streams (layout v2, docs/estimators.md "Random streams"): every
/// draw comes from a counter stream (util/rng.h CounterRng) addressed by
/// (seed, run, stream id, step). The initial state draws at step 0 of
/// kInitialStream; step t draws its proposal at step t of kProposalStream
/// and its accept uniform at step t of kAcceptStream (core/mh_chain.h).
/// Each Run takes the instance's next run number. So step t's proposal
/// is a pure function of (seed, run, t): it does not depend on the
/// target or on any pass, and chains on different targets reset to one
/// seed propose the same sources — the engine serves chains 2..k of a
/// multi-target request from the dependency memo.

namespace mhbc {

/// Knobs for one chain run. Defaults reproduce the paper's algorithm.
struct MhOptions {
  std::uint64_t seed = 0x5eed;
  /// Iterations to discard before recording. The paper proves its bound
  /// holds *without* burn-in; nonzero values exist for the E11 ablation.
  std::uint64_t burn_in = 0;
  /// Proposal distribution (paper: uniform). Non-uniform proposals apply
  /// the Hastings correction.
  ProposalKind proposal = ProposalKind::kUniform;
  /// Fixed initial state; kInvalidVertex draws it uniformly at random
  /// (the paper's choice). Theorem 1 holds from any initial state.
  VertexId initial_state = kInvalidVertex;
  /// Record the state trace and per-state f-series (memory O(T); needed by
  /// the stationarity tests and the mixing bench E6). Implies
  /// record_series.
  bool record_trace = false;
  /// Record only the f-series and proposal-series (memory O(T), no vertex
  /// trace) — what the engine's ESS / standard-error diagnostics need.
  bool record_series = false;
};

/// Outcome of one chain run.
struct MhResult {
  /// Paper Eq. 7: the chain-average estimate of BC(r), Eq. 1 normalization.
  double estimate = 0.0;
  /// Rao-Blackwellized companion estimate (library extension, not in the
  /// paper): the proposals of an independence chain are iid draws from the
  /// proposal distribution, so importance-averaging their dependencies
  /// gives an *unbiased* estimate of BC(r) from the same passes. The E15
  /// ablation compares the two.
  double proposal_estimate = 0.0;
  ChainDiagnostics diagnostics;
  /// States of the chain at steps 0..T (only when record_trace).
  std::vector<VertexId> trace;
  /// f(state) series over the recorded chain states (when record_trace or
  /// record_series).
  std::vector<double> f_series;
  /// Paper-normalized importance-weighted proposal terms, one per
  /// iteration (when record_trace or record_series). These are iid draws
  /// whose mean is `proposal_estimate`, so stddev/sqrt(T) is its standard
  /// error.
  std::vector<double> proposal_series;
};

/// Reusable single-vertex MH estimator bound to one graph.
///
/// Reuse contract: one instance may run any number of chains (each Run is
/// a fresh chain on the instance's next run number, for any target).
/// Reset(seed) rewinds the run counter so a cached instance reproduces a
/// fresh one bit-for-bit.
class MhBetweennessSampler {
 public:
  /// Graph must be non-trivial (n >= 2) and outlive the sampler. A
  /// non-null `shared_oracle` (bound to the same graph, outliving the
  /// sampler) replaces the internally owned one; its memo can serve
  /// repeated proposal sources without re-running passes (see
  /// DependencyOracle) without changing any estimate.
  MhBetweennessSampler(const CsrGraph& graph, MhOptions options,
                       DependencyOracle* shared_oracle = nullptr);

  /// Runs a fresh chain of `iterations` MH steps targeting vertex r.
  MhResult Run(VertexId r, std::uint64_t iterations);

  /// Convenience: Run(...).estimate.
  double Estimate(VertexId r, std::uint64_t iterations) {
    return Run(r, iterations).estimate;
  }

  /// Rewinds the random streams to those of a fresh sampler seeded `seed`.
  void Reset(std::uint64_t seed) {
    options_.seed = seed;
    streams_.Reset(seed);
  }

  const MhOptions& options() const { return options_; }
  MhOptions* mutable_options() { return &options_; }

  /// Total shortest-path passes across all runs through this sampler's
  /// oracle (a shared oracle also counts the other users' work; per-run
  /// work is in MhResult::diagnostics.sp_passes).
  std::uint64_t num_passes() const { return oracle_->num_passes(); }

 private:
  const CsrGraph* graph_;
  MhOptions options_;
  std::unique_ptr<DependencyOracle> owned_oracle_;
  DependencyOracle* oracle_;
  CounterRng streams_;
};

}  // namespace mhbc
