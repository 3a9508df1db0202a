#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "sp/dijkstra_spd.h"

/// \file
/// Brandes dependency accumulation over a shortest-path DAG.
///
/// Computes the dependency scores delta_{s.}(v) of the pass source s on
/// every vertex v via the recursion (paper Eq. 4):
///   delta_{s.}(v) = sum over SPD-successors w of v of
///                   sigma_sv / sigma_sw * (1 + delta_{s.}(w)).
/// One accumulation walks the pass' SPD edges only — O(|SPD edges|) —
/// because every pass engine records them: BFS passes as per-level edge
/// slices, weighted passes as per-vertex predecessor lists.
///
/// BFS DAGs are swept level by level, deepest first: the coefficients
/// (1 + delta(w)) / sigma(w) of the level's vertices, then one flat loop
/// over the level's edge slice (FoldLevelEdges, sp/spd.h) — no per-vertex
/// inner loop with a data-dependent trip count. Each parent's children
/// ascend within a slice, so every delta folds its contributions in
/// ascending child id: a property of the DAG alone, not of the kernel,
/// direction or thread count that recorded the slice, which is what makes
/// dependency vectors bit-identical across all of them.
///
/// Weighted DAGs keep the per-vertex sweep, in the order fixed by
/// ForEachDeepestFirst and ForEachParent (sp/spd.h): levels deepest-first
/// in the DAG's canonical within-level order (ascending (wdist, id) for
/// DeltaSpd waves), reverse settle order for Dijkstra DAGs.
///
/// With a borrowed worker pool the sweep runs level-parallel under the
/// same fixed-shard discipline as the BFS kernels: per level, fixed shards
/// of the level's edge slice (BFS) or vertex slice (DeltaSpd waves) bucket
/// per-parent contributions sigma_v * coeff_w by destination range, then
/// each range owner folds its deltas walking the buckets in shard order.
/// For any fixed parent the contributions fold in slice order — exactly
/// the sequential sweep's regrouping — so delta vectors stay bit-identical
/// at every thread count. Heap-order (Dijkstra) DAGs carry no level
/// structure and keep the sequential reverse-settle sweep.

namespace mhbc {

class ThreadPool;

/// Reusable accumulator bound to one graph.
class DependencyAccumulator {
 public:
  /// `pool` (optional, non-owning, may be null) enables the level-parallel
  /// sweep for DAGs that carry level offsets; callers share the SPD
  /// engine's pool (BfsSpd::intra_pool) so one pass + accumulate uses one
  /// set of threads. Levels with less work than `parallel_grain` (SPD
  /// edges in a BFS level's slice, the in-degree sum of a weighted wave)
  /// run the (bit-identical) sequential body; the default matches
  /// SpdOptions::parallel_grain.
  explicit DependencyAccumulator(const CsrGraph& graph,
                                 ThreadPool* pool = nullptr,
                                 std::uint64_t parallel_grain =
                                     SpdOptions{}.parallel_grain);

  /// Accumulates dependencies of `dag.source` on all vertices — the single
  /// backward-sweep implementation every pass flavor (BFS, delta-stepping,
  /// Dijkstra) funnels through. `graph` must be the graph the pass ran
  /// on; only the level-parallel weighted sweep reads it (in-degrees for
  /// its grain test). Result valid until the next Accumulate call.
  const std::vector<double>& Accumulate(const ShortestPathDag& dag,
                                        const CsrGraph& graph);

  /// Convenience overloads for the engines.
  const std::vector<double>& Accumulate(const BfsSpd& bfs);
  const std::vector<double>& Accumulate(const DeltaSpd& delta);
  const std::vector<double>& Accumulate(const DijkstraSpd& dijkstra);

  /// Dependency of the last pass' source on v (0 for unreached vertices and
  /// for the source itself).
  double delta(VertexId v) const {
    MHBC_DCHECK(v < delta_.size());
    return delta_[v];
  }

  const std::vector<double>& deltas() const { return delta_; }

 private:
  /// One bucketed backward-sweep contribution: delta_[v] += c.
  struct Contribution {
    VertexId v;
    double c;
  };

  /// Sweep over a BFS DAG's level edge slices, level-parallel with a pool.
  void AccumulateLevelEdges(const ShortestPathDag& dag);
  /// Level-parallel per-vertex sweep over settle waves (DeltaSpd DAGs).
  void AccumulateLevels(const ShortestPathDag& dag, const CsrGraph& graph);
  /// Phase 2 of a parallel level: range owners fold the buckets into
  /// delta_ in ascending shard order, and empty them.
  void FoldBuckets();
  /// Lazily sizes destination ranges + buckets (same geometry rules as
  /// BfsSpd::EnsureParallelScratch — a pure function of |V|).
  void EnsureParallelScratch();

  std::vector<double> delta_;
  std::vector<VertexId> touched_;
  /// Per-vertex sweep coefficients of the BFS level being folded; sized by
  /// the first BFS sweep.
  std::vector<double> coeff_;

  /// Intra-pass parallel state; pool_ null = always-sequential sweep.
  ThreadPool* pool_ = nullptr;
  std::uint64_t parallel_grain_ = 0;
  std::size_t num_vertices_ = 0;
  std::size_t num_ranges_ = 0;
  std::uint32_t range_shift_ = 0;
  /// Contribution buckets, indexed [shard * num_ranges_ + range].
  std::vector<std::vector<Contribution>> buckets_;
};

/// Pair dependency delta_{st}(v) = sigma_st(v) / sigma_st for all v, given a
/// fresh BFS engine. O(|V| + |E|) per (s, t) pair; used by tests as an
/// independent oracle for the recursion and by the extended relative score.
/// Unreachable t yields all-zeros.
std::vector<double> PairDependencies(const CsrGraph& graph, VertexId s,
                                     VertexId t);

/// sigma_st(v): number of shortest s-t paths through interior vertex v,
/// computed from two BFS passes as sigma_sv * sigma_vt when
/// d(s,v) + d(v,t) == d(s,t). Exposed for tests.
SigmaCount CountPathsThrough(const CsrGraph& graph, VertexId s, VertexId t,
                             VertexId v);

}  // namespace mhbc
