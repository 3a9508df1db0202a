#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "sp/spd.h"

/// \file
/// Brandes dependency accumulation over a shortest-path DAG.
///
/// Computes the dependency scores delta_{s.}(v) of the pass source s on
/// every vertex v via the recursion (paper Eq. 4):
///   delta_{s.}(v) = sum over SPD-successors w of v of
///                   sigma_sv / sigma_sw * (1 + delta_{s.}(w)).
/// One accumulation walks the pass' SPD edges only — O(|SPD edges|) —
/// because every pass engine records them in the one DAG format of
/// sp/spd.h: levels, and per level the edge slice into it.
///
/// One sweep serves BFS, delta-stepping and Dijkstra DAGs. Levels go
/// deepest first: the coefficients (1 + delta(w)) / sigma(w) of the
/// level's vertices, then one flat loop over the level's edge slice
/// (FoldLevelEdges, sp/spd.h) — no per-vertex inner loop with a
/// data-dependent trip count. No SPD edge joins two vertices of a level,
/// so the level's deltas are final when its coefficients are taken. Each
/// parent's children appear in the level's canonical order within a
/// slice, so every delta folds its contributions in that order: a
/// property of the DAG alone, not of the engine, kernel, direction or
/// thread count that recorded the slice, which is what makes dependency
/// vectors bit-identical across all of them.
///
/// With a borrowed worker pool the sweep runs level-parallel under the
/// same fixed-shard discipline as the pass kernels: per level, fixed
/// shards of the level's edge slice bucket per-parent contributions
/// sigma_v * coeff_w by destination range, then each range owner folds
/// its deltas walking the buckets in shard order. For any fixed parent the
/// contributions fold in slice order — exactly the sequential fold's
/// regrouping — so delta vectors stay bit-identical at every thread count.

namespace mhbc {

class ThreadPool;

/// Reusable accumulator bound to one graph.
class DependencyAccumulator {
 public:
  /// `pool` (optional, non-owning, may be null) enables the level-parallel
  /// sweep; callers share the SPD engine's pool (BfsSpd::intra_pool,
  /// DeltaSpd::intra_pool) so one pass + accumulate uses one set of
  /// threads. Levels with fewer SPD edges in their slice than
  /// `parallel_grain` run the (bit-identical) sequential fold; the default
  /// matches SpdOptions::parallel_grain.
  explicit DependencyAccumulator(const CsrGraph& graph,
                                 ThreadPool* pool = nullptr,
                                 std::uint64_t parallel_grain =
                                     SpdOptions{}.parallel_grain);

  /// Accumulates dependencies of `dag.source` on all vertices — the single
  /// backward sweep every pass flavor (BFS, delta-stepping, Dijkstra)
  /// funnels through. `dag` must come from a pass on the graph the
  /// accumulator was built for. Result valid until the next Accumulate
  /// call.
  const std::vector<double>& Accumulate(const ShortestPathDag& dag);

  /// Accumulates the last pass of a pass engine (BfsSpd, DeltaSpd,
  /// DijkstraSpd): the same sweep over `spd.dag()`.
  template <typename Spd>
  const std::vector<double>& Accumulate(const Spd& spd) {
    return Accumulate(spd.dag());
  }

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

  /// Phase 2 of a parallel level: range owners fold the buckets into
  /// delta_ in ascending shard order, and empty them.
  void FoldBuckets();
  /// Lazily sizes destination ranges + buckets (same geometry rules as
  /// BfsSpd::EnsureParallelScratch — a pure function of |V|).
  void EnsureParallelScratch();

  std::vector<double> delta_;
  std::vector<VertexId> touched_;
  /// Per-vertex sweep coefficients of the level being folded.
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
