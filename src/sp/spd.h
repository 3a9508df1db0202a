#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "util/common.h"

/// \file
/// Shared single-source shortest-path DAG (SPD) representation.
///
/// The paper (§2.1) calls the DAG of all shortest paths rooted at a source
/// the SPD. One SPD pass plus one dependency accumulation is the unit of
/// work of every sampler in this library, so the representation is a set of
/// flat arrays reused across passes (no per-pass allocation).

namespace mhbc {

/// Which traversal the unweighted SPD engine (BfsSpd) runs.
enum class SpdKernel {
  /// Level-synchronous top-down expansion on every level — the reference
  /// kernel; examines every edge of the reached component twice per pass.
  kClassic,
  /// Direction-optimizing (Beamer-style) traversal: per level, switches
  /// between top-down edge expansion and bottom-up parent scanning using
  /// the edge-count heuristics below. Exact sigma counting in both
  /// directions; on low-diameter graphs the peak levels run bottom-up and
  /// the pass examines a fraction of the edges. The default.
  kHybrid,
};

/// Default relative tie window for weighted passes: two floating-point
/// path lengths within this relative distance count as the same shortest
/// distance (the canonical tie rule both weighted engines share — see
/// SpdOptions::tie_epsilon).
inline constexpr double kDefaultTieEpsilon = 1e-12;

/// Tuning knobs for the SPD engines (BfsSpd for unweighted graphs,
/// DeltaSpd/DijkstraSpd for weighted). Every knob except tie_epsilon —
/// kernel choice, the α/β thresholds, the thread count, the parallel
/// grain, the bucket width — changes only the work a pass does: dist,
/// sigma, the canonical order, and every dependency vector downstream are
/// bit-identical across all settings (see BfsSpd and DeltaSpd for why).
/// tie_epsilon is an *accuracy* knob (it defines which weighted paths
/// count as shortest) and therefore part of the determinism key.
struct SpdOptions {
  SpdKernel kernel = SpdKernel::kHybrid;
  /// Intra-pass parallelism: number of threads one SPD pass (and its fused
  /// dependency accumulation) may use for frontier-parallel level steps.
  /// 0 means "inherit": an owning BetweennessEngine substitutes its own
  /// resolved thread count where intra-pass parallelism should win (serial
  /// single-query paths), while standalone construction of BfsSpd /
  /// ExactBetweenness treats 0 as 1 (fully sequential — the historical
  /// behavior). Results are bit-identical at every value.
  unsigned num_threads = 0;
  /// Minimum per-level work (in examined edges; for the backward sweep,
  /// the SPD edges of the level's slice) before a level fans out across
  /// threads; smaller levels run the sequential step, whose output is
  /// identical.
  /// The threshold is a function of the level only — never of the thread
  /// count — so the parallel/sequential choice cannot break determinism.
  /// 0 forces every level through the parallel path (used by tests).
  std::uint64_t parallel_grain = 2048;
  /// Per-level direction test (Beamer's CTB, recalibrated): a level runs
  /// bottom-up when m_f * alpha > m_u, where m_f is the degree sum of the
  /// current frontier (edges a top-down step examines) and m_u the degree
  /// sum of still-unvisited vertices (edges a bottom-up step examines).
  /// alpha is the measured per-edge discount of the bottom-up loop — a
  /// sequential ascending scan with no discovery bookkeeping, no frontier
  /// sort and no branch on the parent test — so the test reads "bottom-up
  /// is the cheaper way to build this level". Exact sigma counting cannot early-exit the parent
  /// scan (Beamer's reachability-only BFS can, hence his much larger
  /// alpha = 14); the default here is the bench_e20 sweep optimum across
  /// the registry graphs. alpha <= 0 disables bottom-up entirely.
  double alpha = 3.0;
  /// Secondary bottom-up exit (Beamer's CBT): also return to top-down once
  /// the frontier is shrinking and has fewer than n / beta vertices.
  /// beta <= 0 disables this exit (the profit-test exit still applies).
  double beta = 24.0;
  /// Weighted passes only — the canonical tie rule: two path lengths a, b
  /// are the same shortest distance when a == b or |a - b| <=
  /// tie_epsilon * max(|a|, |b|); 0 requires exact FP equality. A parent u
  /// becomes an SPD predecessor of v exactly when its candidate
  /// wdist(u) + w(u,v) ties wdist(v) under this rule and u settles before
  /// v stops accepting candidates (DeltaSpd settles whole waves, so a tie
  /// that lands within tie_epsilon of the wave-settle bound is dropped —
  /// deterministically, at every thread count). Must be >= 0 (validated by
  /// both weighted engines) and should stay well below the smallest
  /// relative weight difference in the graph.
  double tie_epsilon = kDefaultTieEpsilon;
  /// Weighted passes only — the delta-stepping bucket width. 0 (default)
  /// picks the canonical width: the graph's mean edge weight, a pure
  /// function of the graph and never of the thread count. The width is a
  /// speed knob: DeltaSpd's wave structure — and with it every output bit
  /// — is invariant under it (waves are defined by distances and per-vertex
  /// minimum incident weights alone; buckets only organize the scan).
  double delta_width = 0.0;
};

/// One SPD edge: `parent` lies in an earlier level than `child` (one hop
/// closer to the source on BFS passes) and reaches it over an in-edge of
/// `child`.
struct SpdEdge {
  VertexId parent;
  VertexId child;
};

/// Result arrays of one single-source pass. Arrays are indexed by vertex id
/// and sized to the graph; entries for unreached vertices hold
/// kUnreachedDistance / 0 sigma.
///
/// The one DAG format. Every pass engine records the same structure:
/// levels (slices of `order`) and, per level, the SPD edges into it
/// (slices of `edges`). No SPD edge joins two vertices of one level, and
/// every parent lies in an earlier level. A level's *canonical order* is
/// its order slice: ascending id for a BFS level, ascending (wdist, id)
/// for a DeltaSpd settle wave, the one vertex of a DijkstraSpd level. The
/// one ordering rule within an edge slice is that each parent's children
/// appear in the level's canonical order. That is all the backward
/// sweep's floating-point fold needs (FoldLevelEdges): a parent folds its
/// children's contributions in canonical order whatever order the slice
/// interleaves parents in, so dependency vectors are bit-identical across
/// kernels and thread counts.
struct ShortestPathDag {
  /// Hop distance from the source (unweighted passes).
  std::vector<std::uint32_t> dist;
  /// Weighted distance from the source (weighted passes only).
  std::vector<double> wdist;
  /// Number of shortest source->v paths.
  std::vector<SigmaCount> sigma;
  /// Vertices in settle order, source first, each level in its canonical
  /// order — a topological order of the SPD (every parent precedes every
  /// child). Doubles as the touched list a pass engine can reset state
  /// through in O(|reached|) (BfsSpd does so after small passes only).
  std::vector<VertexId> order;
  /// Per-level slices of `order`:
  /// order[level_offsets[l] .. level_offsets[l+1]) holds the vertices of
  /// level l — the BFS frontier at hop distance l, the l-th DeltaSpd
  /// settle wave, or the l-th vertex DijkstraSpd settled. Level 0 is the
  /// source alone.
  std::vector<std::size_t> level_offsets;
  /// Every SPD edge, grouped by the level of its child: edges[
  /// edge_offsets[l] .. edge_offsets[l+1]) are the edges into level l
  /// (slice 0, the source's, is empty); see level_edges(). BFS slices
  /// interleave parents in whatever order the kernel and thread count
  /// found them, so they agree across kernels as sets, not sequences.
  /// Weighted slices are child-major: each child in canonical order, then
  /// its parents in relaxation order, which makes a child's parents one
  /// contiguous run (see parent_run). BfsSpd sizes `edges` to the graph's
  /// in-arc count (every SPD edge is a distinct in-arc, so any pass fits;
  /// its bottom-up scan stores speculatively past the edges kept), and the
  /// weighted engines append, keeping capacity across passes. Either way
  /// only the first edge_offsets.back() entries are meaningful.
  std::vector<SpdEdge> edges;
  std::vector<std::size_t> edge_offsets;
  /// Weighted passes: the index in `edges` where reached vertex v's run of
  /// parent edges starts; the run goes on while the child is v (see
  /// ForEachParent). 32 bits suffice: a pass records at most one edge per
  /// in-arc, and the weighted engines check that the in-arc count fits.
  /// Empty on BFS passes, which re-derive parents from dist.
  std::vector<std::uint32_t> parent_run;
  /// The source of the pass.
  VertexId source = kInvalidVertex;
  /// True if the pass used edge weights.
  bool weighted = false;

  /// Number of vertices reached (including the source).
  std::size_t num_reached() const { return order.size(); }

  /// Number of levels (0 before the first pass).
  std::size_t num_levels() const {
    return level_offsets.empty() ? 0 : level_offsets.size() - 1;
  }

  /// The SPD edges into level l.
  std::span<const SpdEdge> level_edges(std::size_t l) const {
    MHBC_DCHECK(l + 1 < edge_offsets.size());
    return {edges.data() + edge_offsets[l],
            edges.data() + edge_offsets[l + 1]};
  }
};

/// Visits every SPD parent of `w`: on weighted passes its run of parent
/// edges, in relaxation order; on BFS passes the in-neighbors one hop
/// closer to the source, re-derived from dist (a parent reaches w over an
/// in-edge, and on undirected graphs the in-neighbor list aliases the
/// neighbor list), in ascending parent id, the order sigma was folded in,
/// whichever kernel ran. The single definition of per-vertex parent
/// enumeration (the RK backtrack); sweeps fold level slices instead.
template <typename Visit>
void ForEachParent(const ShortestPathDag& dag, const CsrGraph& graph,
                   VertexId w, Visit&& visit) {
  if (dag.weighted) {
    const std::size_t end = dag.edge_offsets.back();
    for (std::size_t i = dag.parent_run[w];
         i < end && dag.edges[i].child == w; ++i) {
      visit(dag.edges[i].parent);
    }
  } else {
    const std::uint32_t dw = dag.dist[w];
    for (VertexId v : graph.in_neighbors(w)) {
      if (dag.dist[v] + 1 == dw) visit(v);
    }
  }
}

/// The backward-sweep step of one level: for each SPD edge (p, c) into
/// `level`, in slice order, acc[p] += sigma[p] * coeff[c], where coeff
/// holds the level's per-vertex coefficients by vertex id. Each parent's
/// children appear in the level's canonical order, so every acc[p] folds
/// its contributions in that order — a function of the DAG alone,
/// whichever engine, kernel and thread count recorded the slice. Sweeps
/// call it deepest level first, after filling coeff for the level's
/// vertices; the single definition of the fold, which sharded sweeps
/// reproduce by folding contiguous sub-slices in order.
inline void FoldLevelEdges(const ShortestPathDag& dag, std::size_t level,
                           const double* coeff, double* acc) {
  for (const SpdEdge& edge : dag.level_edges(level)) {
    acc[edge.parent] +=
        static_cast<double>(dag.sigma[edge.parent]) * coeff[edge.child];
  }
}

}  // namespace mhbc
