#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr_graph.h"
#include "sp/spd.h"

/// \file
/// Unweighted shortest-path-DAG construction by level-synchronous BFS.
///
/// Two kernels behind one engine (selected via SpdOptions::kernel):
///
///   kClassic — top-down expansion on every level.
///   kHybrid  — direction-optimizing traversal (Beamer, "Direction-
///              Optimizing Breadth-First Search"): per level, expand the
///              frontier top-down or scan unvisited vertices bottom-up
///              against a visited bitmap, whichever examines fewer edges
///              (the α/β heuristics in SpdOptions). Sigma counting stays
///              exact in both directions: a bottom-up step sums sigma over
///              a vertex's neighbors at the previous depth — the same
///              ascending-parent fold a top-down step performs against the
///              canonical frontier — so dist, sigma, and the canonical
///              order are bit-identical across kernels and α/β settings.
///
/// Both kernels emit the canonical DAG order (ascending vertex id within
/// each level, level slices recorded in ShortestPathDag::level_offsets).
/// A bottom-up step discovers its level in that order. A top-down step
/// discovers it in frontier-expansion order and canonicalizes it without a
/// comparison sort when the level is dense enough: it sets the level's ids
/// in a bitmap the engine owns and reads them back ascending over the
/// level's word span, clearing as it goes. A level that is sparse next to
/// its span (more span words per id than kBitmapMaxWordsPerId in
/// bfs_spd.cc) keeps std::sort.
/// The hybrid kernel additionally records explicit predecessor lists while
/// it traverses — it inspects every parent edge anyway — which is what lets
/// the fused backward sweep (sp/dependency.h) walk SPD edges only instead
/// of re-deriving parents by full neighbor rescans.
///
/// Intra-pass parallelism (SpdOptions::num_threads > 1) runs the level
/// steps of either kernel frontier-parallel while keeping every output
/// bit-identical to the sequential pass. The structure is fixed and
/// thread-count-independent (the same discipline BrandesBetweenness uses
/// across sources):
///
///   * The frontier is split into kFrontierShards contiguous slices; the
///     vertex-id space into contiguous 64-aligned *destination ranges*
///     (a pure function of |V|, at most kFrontierShards of them).
///   * A top-down level runs two ParallelShardedLevel phases: frontier
///     shards bucket candidate DAG edges by destination range (dist is
///     read-only), then each range owner settles its vertices, folding
///     sigma and appending parents by walking the buckets in shard order —
///     which for any fixed vertex is ascending parent id, the exact
///     sequential fold order.
///   * A bottom-up level partitions the visited bitmap by word ranges;
///     each owner runs the sequential scan body on its words (every write
///     — dist/sigma/preds/bitmap — lands in the owned range) and tests
///     parents against the current frontier, published read-only in the
///     level bitmap.
///   * Per-range next-frontier segments are canonicalized locally (each
///     owner drains only the level-bitmap words of its own range) and
///     concatenated in range order, reproducing the globally sorted
///     frontier the sequential kernels build.
///
/// Levels below SpdOptions::parallel_grain examined edges run the
/// (identical-output) sequential step, so tiny levels pay no fan-out cost.
///
/// Directed graphs: top-down expansion walks out-edges and every parent
/// scan — the bottom-up step and recorded predecessor lists — walks
/// in-edges (CsrGraph::in_neighbors, the transpose view), which on
/// undirected graphs alias the out-edges, so the undirected pass is
/// unchanged. The direction heuristic's two ledgers split accordingly:
/// m_f is the frontier's out-degree sum, m_u the unvisited vertices'
/// in-degree sum. The sharded geometry and the determinism argument are
/// direction-blind (both CSRs are sorted), so directed passes keep the
/// bit-identity contract at every thread count.

namespace mhbc {

class ThreadPool;

/// Reusable BFS engine for one graph.
///
/// Run(source) costs O(|E|) with no allocation after the first call. It
/// first undoes the previous pass: with whole-array fills when that pass
/// reached a large share of the graph (kBulkResetDivisor in bfs_spd.cc),
/// else through its order (the touched list) in O(|reached|). The engine
/// is not reentrant — one Run at a time; with SpdOptions::num_threads > 1
/// a Run internally fans level steps out over an owned worker pool (see
/// the intra-pass notes above), which callers can share for the fused
/// dependency sweep via intra_pool(). Samplers own one instance each.
class BfsSpd {
 public:
  /// Work counters of one pass (and totals across passes). "Edges
  /// examined" counts neighbor-list entries inspected: a top-down level
  /// examines the frontier's degree sum, a bottom-up level the degree sum
  /// of still-unvisited vertices.
  struct Stats {
    std::uint64_t edges_examined = 0;
    std::uint32_t top_down_levels = 0;
    std::uint32_t bottom_up_levels = 0;
    std::uint32_t direction_switches = 0;
  };

  /// Fixed number of frontier shards (and the cap on destination ranges)
  /// a parallel level step uses. A constant — never derived from the
  /// thread count — which is what makes the shard-merge order, and with it
  /// every sigma/delta regrouping, identical at any parallelism level.
  static constexpr std::size_t kFrontierShards = 32;

  /// The graph must outlive the engine.
  explicit BfsSpd(const CsrGraph& graph, SpdOptions options = SpdOptions());
  ~BfsSpd();

  /// Computes dist/sigma/order (+ level offsets, + predecessors for the
  /// hybrid kernel) from `source`.
  void Run(VertexId source);

  /// Result of the last Run. Valid until the next Run.
  const ShortestPathDag& dag() const { return dag_; }

  const CsrGraph& graph() const { return *graph_; }
  const SpdOptions& options() const { return options_; }

  /// Counters of the last Run / summed over all Runs.
  const Stats& last_stats() const { return last_stats_; }
  const Stats& total_stats() const { return total_stats_; }

  /// True once the hybrid scratch (visited bitmap + predecessor storage)
  /// has been allocated. The classic kernel never allocates it, and the
  /// hybrid kernel falls back to the classic path — without touching the
  /// scratch — on degenerate graphs (no edges or a single vertex), where
  /// direction optimization has nothing to optimize.
  bool hybrid_scratch_allocated() const { return !visited_.empty(); }

  /// The engine's intra-pass worker pool; null when the pass is sequential
  /// (SpdOptions::num_threads resolved to 1). The fused dependency sweep
  /// borrows this pool so one pass + accumulate uses one set of threads.
  ThreadPool* intra_pool() const { return pool_.get(); }

 private:
  /// Top-down-only level loop (also the degenerate-graph fallback).
  void RunClassic(VertexId source);
  /// Direction-optimizing level loop.
  void RunHybrid(VertexId source);

  /// True when a level with `level_edges` of work should fan out: a pool
  /// exists and the level clears the (thread-count-independent) grain.
  bool UseParallel(std::uint64_t level_edges) const {
    return pool_ != nullptr && level_edges >= options_.parallel_grain;
  }
  /// Puts `ids` — one level's distinct vertex ids, in discovery order —
  /// into ascending order through level_bits_, or std::sort when the level
  /// is sparse next to its word span (see the file comment).
  /// Touches only the level-bitmap words the ids span, and leaves them
  /// zero.
  void CanonicalizeLevel(std::vector<VertexId>* ids);
  /// Lazily sizes the destination ranges + per-shard buckets (a pure
  /// function of |V|).
  void EnsureParallelScratch();
  /// Frontier-parallel top-down level step: settles depth+1, fills next_
  /// (sorted) and returns its out-degree sum; adds the new level's
  /// in-degree sum (the bottom-up cost ledger, which differs from the
  /// out-degree sum on directed graphs) to *next_in_edges. record_preds
  /// selects the hybrid variant (visited bits + predecessor lists).
  std::uint64_t TopDownLevelParallel(std::uint32_t depth, bool record_preds,
                                     std::uint64_t* next_in_edges);
  /// Word-range-parallel bottom-up level step; same outputs as above,
  /// always records predecessors (hybrid only).
  std::uint64_t BottomUpLevelParallel(std::uint32_t depth,
                                      std::uint64_t tail_mask,
                                      std::uint64_t* next_in_edges);

  void SetVisited(VertexId v) {
    visited_[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  void ClearVisited(VertexId v) {
    visited_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  }

  const CsrGraph* graph_;
  SpdOptions options_;
  ShortestPathDag dag_;
  /// Frontier scratch: current level / next level under construction.
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_;
  /// Visited bitmap (one bit per vertex); lazily allocated by the first
  /// hybrid pass, empty otherwise.
  std::vector<std::uint64_t> visited_;
  /// Level bitmap (one bit per vertex), all-zero between level steps. A
  /// top-down step sets and drains a level's ids in it to canonicalize
  /// the level; a parallel bottom-up step publishes the current frontier
  /// in it, so the parent test never reads a dist entry another range
  /// owner may be writing.
  std::vector<std::uint64_t> level_bits_;
  Stats last_stats_;
  Stats total_stats_;

  /// A candidate DAG edge found by a top-down frontier shard: v is
  /// unreached at level start, u its frontier parent.
  struct TdCandidate {
    VertexId v;
    VertexId u;
  };

  /// Intra-pass parallel state; pool_ is null (and the scratch below
  /// empty) when the engine runs sequentially.
  std::unique_ptr<ThreadPool> pool_;
  /// Destination-range geometry: range of v is v >> range_shift_;
  /// num_ranges_ <= kFrontierShards. Ranges are 64-aligned so every
  /// visited-bitmap word has exactly one owner.
  std::size_t num_ranges_ = 0;
  std::uint32_t range_shift_ = 0;
  /// Candidate buckets, indexed [shard * num_ranges_ + range]; capacity is
  /// retained across levels and passes.
  std::vector<std::vector<TdCandidate>> buckets_;
  /// Per-range next-frontier segments + their out-/in-degree sums.
  std::vector<std::vector<VertexId>> range_next_;
  std::vector<std::uint64_t> range_edges_;
  std::vector<std::uint64_t> range_in_edges_;
};

}  // namespace mhbc
