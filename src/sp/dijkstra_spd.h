#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "sp/spd.h"

/// \file
/// Weighted shortest-path-DAG construction by Dijkstra's algorithm.
///
/// Used for the paper's weighted-graph cost claims: one pass is
/// O(|E| + |V| log |V|)-ish (binary heap with lazy deletion, so
/// O(|E| log |V|) worst case — equivalent for the sparse networks here).
/// The oracles run DeltaSpd; this engine is its value-level reference.

namespace mhbc {

/// Reusable Dijkstra engine for one positively-weighted graph.
///
/// It records the shared DAG format (sp/spd.h) with one level per settled
/// vertex, in settle order, so the one backward sweep walks the DAG in
/// reverse settle order. Shortest-path ties under floating-point addition
/// cannot be re-derived from distances alone, so the engine keeps
/// per-vertex parent lists while a pass runs (private scratch in in-CSR
/// capacity layout) and copies each into the DAG as the vertex' level
/// slice when it settles.
class DijkstraSpd {
 public:
  /// The graph must be weighted with positive weights and outlive the
  /// engine. Tie detection follows the canonical tie rule (see
  /// SpdOptions::tie_epsilon — this engine shares it with DeltaSpd):
  /// distances within `tie_epsilon` (relative) are equal; 0 requires exact
  /// FP equality. Must be >= 0 (validated).
  explicit DijkstraSpd(const CsrGraph& graph,
                       double tie_epsilon = kDefaultTieEpsilon);

  /// Computes the DAG from `source`: wdist/sigma and one level per settled
  /// vertex.
  void Run(VertexId source);

  /// Result of the last Run. `dag().wdist` holds weighted distances;
  /// `dag().dist` is not populated.
  const ShortestPathDag& dag() const { return dag_; }

  const CsrGraph& graph() const { return *graph_; }

 private:
  bool Equal(double a, double b) const;

  const CsrGraph* graph_;
  double tie_epsilon_;
  ShortestPathDag dag_;
  /// In-pass parent lists: v's parents occupy pred_storage_[pred_begin_[v]
  /// .. pred_begin_[v] + pred_count_[v]). pred_begin_ is the graph's
  /// in-CSR offsets array, valid as long as the graph.
  const EdgeId* pred_begin_ = nullptr;
  std::vector<std::uint32_t> pred_count_;
  std::vector<VertexId> pred_storage_;
  std::vector<char> settled_;
};

}  // namespace mhbc
