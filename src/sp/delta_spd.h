#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "sp/spd.h"

/// \file
/// Weighted shortest-path-DAG construction by canonical-wave delta-stepping.
///
/// The weighted analogue of the hybrid BFS engine: one pass costs
/// O(|E| + waves * near list) like delta-stepping (Meyer & Sanders), but the
/// settle schedule is *canonical* — a pure function of the graph and the
/// source, never of the bucket width or the thread count — so weighted
/// passes join the determinism contract the unweighted kernels already
/// honor.
///
/// The wave rule. Let d_min be the smallest tentative distance over all
/// reached-but-unsettled vertices and minw(v) the smallest weight incident
/// to v. One step settles the *wave*
///
///     W = { unsettled reached v : wdist(v) < d_min + minw(v) }
///
/// all at once, then relaxes every edge out of W. Finality: any later
/// candidate path into v ends with an edge from a vertex settling at
/// distance >= d_min, so it costs >= d_min + minw(v) > wdist(v) — the
/// tentative distance is already final (positive weights make every
/// unsettled vertex' final distance >= d_min, the textbook Dijkstra
/// argument). The d_min achiever always qualifies (minw > 0), so every
/// step makes progress. Ties that land within tie_epsilon of the
/// wave-settle bound are dropped — deterministically, at every thread
/// count and bucket width (see SpdOptions::tie_epsilon).
///
/// Waves are levels. No SPD edge connects two wave members (an intra-wave
/// candidate costs >= d_min + minw(v) and so cannot tie wdist(v)), and
/// every parent settles in an earlier wave — the settle order is
/// topological, exactly what the backward dependency sweep needs. Each
/// wave is recorded as one level of the shared DAG format (sp/spd.h):
/// members in canonical ascending (wdist, id) order, and the wave's edge
/// slice child-major — each member in that order, then its parents in
/// relaxation order. A settled vertex gains no more parents, so a
/// member's list is final when its wave settles. Each parent then meets
/// its children in canonical order, the one rule the shared sweep
/// (sp/dependency.h) needs. Note the order is NOT globally distance-sorted
/// (a heap engine's order is): a vertex with a large minw may settle
/// before a nearer vertex with a small minw.
///
/// A near list and buckets only organize the scan. Reached, unsettled
/// vertices live in one of two places. Those whose distance maps below
/// the *horizon* bucket sit on a flat near list, each once. The rest wait
/// in an array of width-Δ buckets (Δ = SpdOptions::delta_width,
/// defaulting to the graph's mean edge weight — a pure function of the
/// graph). Bucket entries are lazy: an improvement pushes a new entry and
/// leaves the old one stale. The horizon is bucket(d_min + 2 max_v
/// minw(v)) + 1. Every wave member has wdist(v) < d_min + max_v minw(v),
/// so every member is on the near list, and each step is one split of
/// that list into the wave and the vertices that stay. As d_min
/// advances, the horizon follows, pulling buckets onto the list one at a
/// time. Relaxation appends a vertex to the list only when it first falls
/// below the horizon. d_min is the list's minimum, kept up to date as
/// vertices join it. The scan bound: a pass visits each bucket entry
/// once, when its bucket is pulled, and a wave visits only near vertices,
/// none past bucket(d_min + 2 max_v minw(v)), so a vertex waits on the
/// list while d_min advances by at most 2 max_v minw(v) + Δ. Vertices
/// that wait far ahead stay in buckets (a list with no buckets would
/// rescan them on every wave). Because wave membership is defined by
/// distances and minw alone, every output bit is invariant under Δ: the
/// width only trades bucket pushes against near-list length.
///
/// Each wave sorts its (wdist, id) keys directly, not vertex ids through
/// an indirect wdist lookup.
///
/// Intra-pass parallelism (SpdOptions::num_threads > 1) fans each wave's
/// relaxation out under the same fixed-shard discipline as the BFS
/// kernels: kFrontierShards contiguous slices of the (sorted) wave bucket
/// candidate relaxations by 64-aligned destination range (a pure function
/// of |V|); each range owner then commits its targets' relaxations walking
/// the buckets in shard order — for any fixed target that is ascending
/// (wdist, id) parent order, the exact sequential fold — staging each
/// strict improvement, which the calling thread places on the near list
/// or in a bucket in range order. Since wave
/// members' wdist/sigma are fixed before relaxation begins and each
/// target's state is owned by exactly one range, wdist/sigma/order/edges —
/// and every dependency vector downstream — are bit-identical to the
/// sequential pass at any thread count.

namespace mhbc {

class ThreadPool;

/// Reusable canonical-wave delta-stepping engine for one positively-
/// weighted graph.
///
/// Weighted ties cannot be re-derived from distances, so the engine keeps
/// per-vertex parent lists while a pass runs (private scratch in in-CSR
/// capacity layout) and copies each list into the DAG as the vertex'
/// parent run when its wave settles. Run(source) reuses its arrays across
/// passes, allocating only while they grow to the largest pass seen. The
/// engine is not reentrant — one Run at a time; with num_threads > 1 a Run
/// fans wave relaxations out over an owned worker pool, which callers
/// share for the fused sweep via intra_pool().
class DeltaSpd {
 public:
  /// Work counters of one pass (and totals across passes). "Edges
  /// examined" counts neighbor-list entries inspected by wave relaxations
  /// (each directed edge at most once per pass); "entries scanned" counts
  /// the queue's overhead: one visit per near-list vertex per wave (the
  /// wave split) plus every bucket entry pulled, stale ones included.
  struct Stats {
    std::uint64_t edges_examined = 0;
    std::uint64_t entries_scanned = 0;
    std::uint32_t waves = 0;
    std::uint32_t parallel_waves = 0;
  };

  /// Fixed shard count of a parallel wave relaxation — the same constant
  /// (and the same destination-range geometry) as BfsSpd::kFrontierShards,
  /// never derived from the thread count.
  static constexpr std::size_t kFrontierShards = 32;

  /// The graph must be weighted with positive weights and outlive the
  /// engine. options.tie_epsilon must be >= 0 and options.delta_width
  /// >= 0 (0 = auto width); both are validated here.
  explicit DeltaSpd(const CsrGraph& graph, SpdOptions options = SpdOptions());
  ~DeltaSpd();

  /// Computes the DAG from `source`: wdist/sigma, the waves as levels, and
  /// their edge slices.
  void Run(VertexId source);

  /// Result of the last Run. `dag().wdist` holds weighted distances;
  /// `dag().dist` is not populated. Valid until the next Run.
  const ShortestPathDag& dag() const { return dag_; }

  const CsrGraph& graph() const { return *graph_; }
  const SpdOptions& options() const { return options_; }

  /// The bucket width Δ in effect: options().delta_width when positive,
  /// else the canonical auto width (mean edge weight; 1.0 on an edgeless
  /// graph). Outputs are invariant under it — see the file comment.
  double bucket_width() const { return bucket_width_; }

  /// Smallest weight incident to v — the minimum *incoming* weight on
  /// directed graphs (+infinity for vertices with no in-edge): relaxations
  /// arrive over in-edges, so that is the wave rule's per-vertex settle
  /// slack. Exposed for the oracle's selective weighted invalidation and
  /// for tests.
  double min_incident_weight(VertexId v) const {
    MHBC_DCHECK(v < min_incident_.size());
    return min_incident_[v];
  }

  /// Counters of the last Run / summed over all Runs.
  const Stats& last_stats() const { return last_stats_; }
  const Stats& total_stats() const { return total_stats_; }

  /// The engine's intra-pass worker pool; null when the pass is sequential
  /// (SpdOptions::num_threads resolved to 1). The fused dependency sweep
  /// borrows this pool so one pass + accumulate uses one set of threads.
  ThreadPool* intra_pool() const { return pool_.get(); }

 private:
  /// The canonical tie rule (shared with DijkstraSpd): a == b or
  /// |a - b| <= tie_epsilon * max(|a|, |b|).
  bool Equal(double a, double b) const;

  /// Bucket index of distance d: a product with the reciprocal width,
  /// monotone in d, so every vertex in a lower bucket is strictly nearer
  /// than every vertex in a higher one.
  std::size_t BucketOf(double d) const {
    return static_cast<std::size_t>(d * inv_width_);
  }

  /// Appends a lazy entry for v to `bucket`, growing the array as needed.
  void PushBucket(std::size_t bucket, VertexId v);
  /// Moves bucket b's waiting vertices to the near list and empties it.
  void PullBucket(std::size_t b);
  /// Queues v after a strict improvement to `candidate`: onto the near
  /// list when below the horizon (once), else into its bucket.
  void Place(double candidate, VertexId v);

  /// Relaxes one candidate edge u -> v (v unsettled): strict improvement
  /// resets v's predecessor set and reports (candidate, v) to `improved`;
  /// a tie folds sigma and appends u. The single relax body both the
  /// sequential and the parallel path funnel through.
  template <typename Improved>
  void RelaxCandidate(VertexId u, VertexId v, double candidate,
                      Improved&& improved);

  /// A settling wave member with its (final) distance: waves sort by
  /// (wdist, id) on these keys directly.
  struct WaveKey {
    double wdist;
    VertexId v;
  };

  /// Relaxes every edge out of `wave` in wave order on the calling thread.
  void RelaxWaveSequential(std::span<const WaveKey> wave);
  /// Fixed-shard parallel wave relaxation (see the file comment); output
  /// bit-identical to RelaxWaveSequential.
  void RelaxWaveParallel(std::span<const WaveKey> wave);

  /// True when a wave with `wave_edges` of work should fan out: a pool
  /// exists and the wave clears the (thread-count-independent) grain.
  bool UseParallel(std::uint64_t wave_edges) const {
    return pool_ != nullptr && wave_edges >= options_.parallel_grain;
  }
  /// Lazily sizes the destination ranges + per-shard candidate buckets
  /// (the BfsSpd geometry — a pure function of |V|).
  void EnsureParallelScratch();

  const CsrGraph* graph_;
  SpdOptions options_;
  ShortestPathDag dag_;
  /// In-pass parent lists: v's parents occupy pred_storage_[pred_begin_[v]
  /// .. pred_begin_[v] + pred_count_[v]). pred_begin_ is the graph's
  /// in-CSR offsets array, valid as long as the graph.
  const EdgeId* pred_begin_ = nullptr;
  std::vector<std::uint32_t> pred_count_;
  std::vector<VertexId> pred_storage_;
  /// Per-vertex smallest incident weight minw(v); +infinity for isolated
  /// vertices (only consulted for reached vertices, which have an edge).
  std::vector<double> min_incident_;
  /// max_v minw(v) over non-isolated vertices: every wave member lies
  /// within it of d_min, and the horizon sits twice it past d_min.
  double max_min_incident_ = 0.0;
  double bucket_width_ = 1.0;
  double inv_width_ = 1.0;
  /// Per-vertex queue state of the current pass: kWaiting (unreached, or
  /// reached with an entry in a bucket at or past the horizon), kNear (on
  /// the near list) or kSettled. A vertex only moves forward through the
  /// three, so a bucket entry whose vertex is no longer kWaiting is stale.
  static constexpr std::uint8_t kWaiting = 0;
  static constexpr std::uint8_t kNear = 1;
  static constexpr std::uint8_t kSettled = 2;
  std::vector<std::uint8_t> state_;
  /// The near list: every reached, unsettled vertex whose bucket is below
  /// horizon_, each once, in no particular order.
  std::vector<VertexId> near_;
  /// The smallest wdist on the near list: the stayers' minimum from the
  /// last split, lowered by every vertex that joins the list or improves
  /// on it since. An improvement only lowers a distance, so this is the
  /// exact minimum without a rescan.
  double near_min_ = 0.0;
  /// The first bucket not yet pulled onto the near list.
  std::size_t horizon_ = 0;
  /// Lazy bucket queue for reached vertices at or past the horizon:
  /// buckets_[b] holds v when wdist(v) mapped to bucket b at an
  /// improvement. A later improvement leaves the old entry behind, stale.
  /// Buckets below horizon_ are empty, and all are empty between Runs.
  std::vector<std::vector<VertexId>> buckets_;
  /// One past the highest bucket pushed this pass.
  std::size_t bucket_end_ = 0;
  /// The current wave's keys in [0, wave size), ascending (wdist, id);
  /// sized to the largest near list seen, which bounds a wave.
  std::vector<WaveKey> wave_;
  Stats last_stats_;
  Stats total_stats_;

  /// A candidate relaxation found by a wave shard: settled parent u offers
  /// v the path length `candidate`.
  struct Candidate {
    VertexId v;
    VertexId u;
    double candidate;
  };
  /// A strict improvement staged by a range owner, placed by the calling
  /// thread in range order.
  struct StagedPlace {
    double candidate;
    VertexId v;
  };

  /// Intra-pass parallel state; pool_ is null (and the scratch below
  /// empty) when the engine runs sequentially.
  std::unique_ptr<ThreadPool> pool_;
  /// Destination-range geometry: range of v is v >> range_shift_;
  /// num_ranges_ <= kFrontierShards (same rule as BfsSpd).
  std::size_t num_ranges_ = 0;
  std::uint32_t range_shift_ = 0;
  /// Candidate buckets, indexed [shard * num_ranges_ + range]; capacity is
  /// retained across waves and passes.
  std::vector<std::vector<Candidate>> cand_buckets_;
  /// Per-range staged improvements.
  std::vector<std::vector<StagedPlace>> range_places_;
};

}  // namespace mhbc
