#pragma once

#include <cstdint>

#include "graph/csr_graph.h"
#include "util/rng.h"

/// \file
/// Shared Metropolis-Hastings conventions for the paper's two samplers.
///
/// Both samplers accept a proposed state with probability
/// min{1, delta' / delta} (paper Eqs. 6 and 17). Dependency scores can be
/// zero (e.g. the target r itself, leaves of the SPD, or vertices whose
/// shortest paths never cross r), which the paper leaves implicit; the
/// library-wide conventions, pinned by tests, are:
///
///   delta > 0, delta' > 0  ->  min{1, delta'/delta}   (the generic case)
///   delta = 0, delta' > 0  ->  1   (ratio diverges; always move up)
///   delta > 0, delta' = 0  ->  0   (never move from support to null state)
///   delta = 0, delta' = 0  ->  1   (move freely among null states so the
///                                   chain cannot stall before reaching the
///                                   support; such holds contribute f = 0)

namespace mhbc {

/// CounterRng stream ids of both samplers (random-stream layout v2; see
/// docs/estimators.md "Random streams"): the initial state draws at step
/// 0 of kInitialStream, and step t >= 1 draws its proposal from
/// kProposalStream and its accept uniform from kAcceptStream, each at t.
enum MhStream : std::uint64_t {
  kInitialStream = 0,
  kProposalStream = 1,
  kAcceptStream = 2,
};

/// Proposal distribution for the chain's candidate states. The paper uses
/// the uniform proposal; the degree-proportional alternative is the E12
/// ablation (with the corresponding Hastings correction applied).
enum class ProposalKind {
  kUniform,
  kDegreeProportional,
};

/// MH acceptance probability for target ratio delta'/delta under the
/// conventions above (uniform proposal; no Hastings correction).
double MhAcceptanceProbability(double delta_current, double delta_proposed);

/// Acceptance probability with the Hastings correction for an arbitrary
/// positive proposal mass q(.): min{1, (delta' q_cur) / (delta q_prop)}.
double MhAcceptanceProbability(double delta_current, double delta_proposed,
                               double q_current, double q_proposed);

/// Draws a proposal vertex according to `kind`. Degree-proportional
/// proposals draw an edge endpoint (degree-biased) in O(log n) via the
/// CSR adjacency array; on directed graphs the draw spans the out- and
/// in-CSR together, so the bias is by total degree outdeg + indeg.
VertexId DrawProposal(const CsrGraph& graph, ProposalKind kind, Rng* rng);

/// Proposal mass q(v) (unnormalized is fine for ratios): 1 for uniform,
/// degree(v) for degree-proportional (outdeg(v) + indeg(v) on directed
/// graphs, matching DrawProposal's slot ownership).
double ProposalMass(const CsrGraph& graph, ProposalKind kind, VertexId v);

}  // namespace mhbc
