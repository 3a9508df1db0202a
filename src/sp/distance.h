#pragma once

#include <vector>

#include "graph/csr_graph.h"

/// \file
/// Plain distance computations (no sigma counting), for the
/// distance-proportional baseline sampler [13] and the harnesses.
///
/// Both passes follow in-edges, so they measure distances *to* `target`:
/// the sampler weighs a source by how far it must travel to the target.
/// On undirected graphs the in-CSR aliases the out-CSR, and these are
/// the distances from `target`.

namespace mhbc {

/// Hop distances d(v, target) (kUnreachedDistance where v cannot reach
/// `target`).
std::vector<std::uint32_t> BfsDistancesTo(const CsrGraph& graph,
                                          VertexId target);

/// Weighted distances d(v, target) (negative where v cannot reach
/// `target`). Works on unweighted graphs too (all weights 1).
std::vector<double> DijkstraDistancesTo(const CsrGraph& graph,
                                        VertexId target);

}  // namespace mhbc
