#include "core/mh_betweenness.h"

#include <unordered_set>

namespace mhbc {

MhBetweennessSampler::MhBetweennessSampler(const CsrGraph& graph,
                                           MhOptions options,
                                           DependencyOracle* shared_oracle)
    : graph_(&graph),
      options_(options),
      owned_oracle_(shared_oracle ? nullptr
                                  : std::make_unique<DependencyOracle>(graph)),
      oracle_(shared_oracle ? shared_oracle : owned_oracle_.get()),
      streams_(options.seed) {
  MHBC_DCHECK(graph.num_vertices() >= 2);
}

MhResult MhBetweennessSampler::Run(VertexId r, std::uint64_t iterations) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(iterations >= 1);
  const VertexId n = graph_->num_vertices();
  const double n_minus_1 = static_cast<double>(n) - 1.0;

  MhResult result;
  std::unordered_set<VertexId> distinct;
  const std::uint64_t passes_before = oracle_->num_passes();
  streams_.BeginRun();

  // Initial state v0 (uniform unless pinned) and its dependency, 1 pass.
  VertexId current = options_.initial_state != kInvalidVertex
                         ? options_.initial_state
                         : streams_.At(kInitialStream, 0)->NextVertex(n);
  MHBC_DCHECK(current < n);
  double delta_current = oracle_->Dependency(current, r);

  double f_sum = 0.0;            // sum of f over recorded chain states
  std::uint64_t f_count = 0;     // recorded states (T + 1 when burn_in == 0)
  double proposal_sum = 0.0;     // sum of importance-weighted proposal terms
  std::uint64_t proposal_count = 0;

  const bool record_series = options_.record_trace || options_.record_series;
  auto record_state = [&](VertexId v, double delta) {
    f_sum += delta / n_minus_1;
    ++f_count;
    distinct.insert(v);
    if (options_.record_trace) result.trace.push_back(v);
    if (record_series) result.f_series.push_back(delta / n_minus_1);
  };
  if (options_.burn_in == 0) record_state(current, delta_current);

  // Degree-proportional total mass: sum of degrees = 2m undirected, and
  // sum of (outdeg + indeg) = 2m arcs directed — num_edges()*2 either way.
  const double total_proposal_mass =
      options_.proposal == ProposalKind::kUniform
          ? static_cast<double>(n)
          : static_cast<double>(graph_->num_edges() * 2);

  for (std::uint64_t t = 1; t <= options_.burn_in + iterations; ++t) {
    const VertexId proposed = DrawProposal(*graph_, options_.proposal,
                                           streams_.At(kProposalStream, t));
    const double delta_proposed = oracle_->Dependency(proposed, r);

    // Rao-Blackwellized companion: proposals are iid from q, so
    // delta(proposed) / q(proposed) is an unbiased estimate of raw BC(r).
    const double q_mass =
        ProposalMass(*graph_, options_.proposal, proposed) /
        total_proposal_mass;
    proposal_sum += delta_proposed / q_mass;
    ++proposal_count;
    if (record_series) {
      result.proposal_series.push_back(delta_proposed / q_mass /
                                       (static_cast<double>(n) * n_minus_1));
    }

    const double accept_probability =
        options_.proposal == ProposalKind::kUniform
            ? MhAcceptanceProbability(delta_current, delta_proposed)
            : MhAcceptanceProbability(
                  delta_current, delta_proposed,
                  ProposalMass(*graph_, options_.proposal, current),
                  ProposalMass(*graph_, options_.proposal, proposed));
    if (streams_.At(kAcceptStream, t)->NextBernoulli(accept_probability)) {
      current = proposed;
      delta_current = delta_proposed;
      ++result.diagnostics.accepted;
    } else {
      ++result.diagnostics.rejected;
    }
    if (t > options_.burn_in) record_state(current, delta_current);
  }

  result.diagnostics.iterations = options_.burn_in + iterations;
  // Work this run actually paid for (oracle memo hits cost no pass).
  result.diagnostics.sp_passes = oracle_->num_passes() - passes_before;
  result.diagnostics.distinct_states = distinct.size();

  // Eq. 7 exactly: BC^(r) = (1/((T+1)(n-1))) sum over chain states of
  // delta_{v.}(r) — i.e. the chain average of f(v) = delta/(n-1). The
  // chain's stationary mean of f approaches the uniform mean (Theorem 1's
  // theta = BC(r)) with the delta-spread-controlled gap mu(r) bounds.
  MHBC_DCHECK(f_count > 0);
  result.estimate = f_sum / static_cast<double>(f_count);
  // E_q[delta/q] = raw BC(r); apply the Eq. 1 normalization n(n-1).
  result.proposal_estimate =
      proposal_sum / static_cast<double>(proposal_count) /
      (static_cast<double>(n) * n_minus_1);
  return result;
}

}  // namespace mhbc
