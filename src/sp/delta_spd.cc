#include "sp/delta_spd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/thread_pool.h"

namespace mhbc {

DeltaSpd::DeltaSpd(const CsrGraph& graph, SpdOptions options)
    : graph_(&graph), options_(options) {
  MHBC_DCHECK(graph.weighted());
  MHBC_DCHECK(options_.tie_epsilon >= 0.0);
  MHBC_DCHECK(options_.delta_width >= 0.0);
  const VertexId n = graph.num_vertices();
  dag_.wdist.assign(n, -1.0);  // -1 marks unreached
  dag_.sigma.assign(n, 0);
  dag_.order.reserve(n);
  dag_.weighted = true;
  // parent_run indexes edges in 32 bits: a pass records at most one SPD
  // edge per in-arc.
  MHBC_DCHECK(graph.raw_in_adjacency().size() <=
              std::numeric_limits<std::uint32_t>::max());
  dag_.parent_run.assign(n, 0);
  // A parent reaches v over an in-edge, so v's parent list can never
  // outgrow its in-degree: the graph's in-CSR offsets ARE the lists' begin
  // offsets (on undirected graphs the in-CSR aliases the out-CSR).
  pred_begin_ = graph.raw_in_offsets().data();
  pred_count_.assign(n, 0);
  pred_storage_.assign(graph.raw_in_adjacency().size(), kInvalidVertex);
  settled_.assign(n, 0);
  wave_.reserve(n);

  // Per-vertex settle slack minw(v) and the window span max_v minw(v) —
  // both pure functions of the graph, fixed for the engine's lifetime.
  // minw(v) is the minimum *incoming* weight: the wave rule bounds how
  // soon another relaxation can still improve wdist(v), and improvements
  // arrive over in-edges. Undirected graphs read the same values as
  // before (in-weights alias the incident weights).
  min_incident_.assign(n, std::numeric_limits<double>::infinity());
  double weight_sum = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const auto in_wts = graph.in_weights(v);
    for (const double w : in_wts) {
      MHBC_DCHECK(w > 0.0);
      min_incident_[v] = std::min(min_incident_[v], w);
      weight_sum += w;
    }
    if (!in_wts.empty()) {
      max_min_incident_ = std::max(max_min_incident_, min_incident_[v]);
    }
  }
  const std::span<const double> weights = graph.raw_weights();
  // Canonical auto width: the mean edge weight — a function of the graph,
  // never of the thread count. Any positive width yields the same outputs
  // (see the header); the mean keeps the wave window a few buckets wide.
  bucket_width_ = options_.delta_width > 0.0 ? options_.delta_width
                  : weights.empty()
                      ? 1.0
                      : weight_sum / static_cast<double>(weights.size());

  // num_threads == 0 means "inherit": standalone construction has nothing
  // to inherit from, so it stays sequential; an owning engine substitutes
  // its resolved count before constructing us (see BetweennessEngine).
  const unsigned intra = options_.num_threads == 0 ? 1 : options_.num_threads;
  if (intra > 1) pool_ = std::make_unique<ThreadPool>(intra);
}

DeltaSpd::~DeltaSpd() = default;

bool DeltaSpd::Equal(double a, double b) const {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= options_.tie_epsilon * scale;
}

void DeltaSpd::PushBucket(std::size_t bucket, VertexId v) {
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1);
  buckets_[bucket].push_back(v);
  max_bucket_ = std::max(max_bucket_, bucket);
}

template <typename Push>
void DeltaSpd::RelaxCandidate(VertexId u, VertexId v, double candidate,
                              Push&& push) {
  const double current = dag_.wdist[v];
  if (current < 0.0 ||
      candidate < current - options_.tie_epsilon * candidate) {
    // Strict improvement: reset predecessor set, re-bucket v.
    dag_.wdist[v] = candidate;
    dag_.sigma[v] = dag_.sigma[u];
    pred_count_[v] = 1;
    pred_storage_[pred_begin_[v]] = u;
    push(BucketOf(candidate), v);
  } else if (Equal(candidate, current)) {
    // Tie: u is an additional predecessor (each directed edge relaxes at
    // most once per pass — when u settles — so no duplicate check).
    dag_.sigma[v] += dag_.sigma[u];
    MHBC_DCHECK(pred_count_[v] < graph_->in_degree(v));
    pred_storage_[pred_begin_[v] + pred_count_[v]] = u;
    ++pred_count_[v];
  }
}

void DeltaSpd::Run(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  // Reset only what the previous pass touched. Every reached vertex
  // settled (the wave loop drains all buckets), so the previous order is
  // the complete touched set and all buckets are already empty.
  for (VertexId v : dag_.order) {
    dag_.wdist[v] = -1.0;
    dag_.sigma[v] = 0;
    pred_count_[v] = 0;
    settled_[v] = 0;
  }
  dag_.order.clear();
  dag_.level_offsets.clear();
  dag_.edges.clear();
  dag_.edge_offsets.clear();
  dag_.source = source;
  last_stats_ = Stats();
  max_bucket_ = 0;

  dag_.wdist[source] = 0.0;
  dag_.sigma[source] = 1;
  PushBucket(0, source);

  std::size_t cur = 0;
  while (cur <= max_bucket_) {
    // Compact the head bucket — drop settled and stale entries (an entry
    // is live only while its vertex' tentative distance still maps here;
    // every improvement pushed an entry to the new bucket) — and find
    // d_min. Monotone BucketOf means the first non-empty compacted bucket
    // holds the global minimum tentative distance.
    std::vector<VertexId>& head = buckets_[cur];
    std::size_t keep = 0;
    double d_min = std::numeric_limits<double>::infinity();
    last_stats_.bucket_entries_scanned += head.size();
    for (VertexId v : head) {
      if (settled_[v] || BucketOf(dag_.wdist[v]) != cur) continue;
      head[keep++] = v;
      d_min = std::min(d_min, dag_.wdist[v]);
    }
    head.resize(keep);
    if (keep == 0) {
      ++cur;
      continue;
    }

    // Wave selection over the window of buckets that can hold members:
    // wdist(v) < d_min + minw(v) <= d_min + max_min_incident_, and
    // BucketOf is monotone. Qualifying vertices settle immediately (which
    // also dedups repeated lazy entries); the rest stay bucketed.
    const std::size_t window_end =
        std::min(BucketOf(d_min + max_min_incident_), max_bucket_);
    wave_.clear();
    std::uint64_t wave_edges = 0;
    for (std::size_t b = cur; b <= window_end; ++b) {
      std::vector<VertexId>& bucket = buckets_[b];
      if (bucket.empty()) continue;
      last_stats_.bucket_entries_scanned += bucket.size();
      std::size_t retained = 0;
      for (VertexId v : bucket) {
        if (settled_[v] || BucketOf(dag_.wdist[v]) != b) continue;
        if (dag_.wdist[v] < d_min + min_incident_[v]) {
          settled_[v] = 1;
          wave_.push_back(v);
          wave_edges += graph_->degree(v);
        } else {
          bucket[retained++] = v;
        }
      }
      bucket.resize(retained);
    }
    // The d_min achiever always qualifies (minw > 0), so progress is
    // guaranteed.
    MHBC_DCHECK(!wave_.empty());

    // Canonicalize the wave: ascending (wdist, id). This fixes the settle
    // order, the per-target relaxation fold order, and the level slice the
    // backward sweep walks — independent of bucket-scan order.
    std::sort(wave_.begin(), wave_.end(), [this](VertexId a, VertexId b) {
      if (dag_.wdist[a] != dag_.wdist[b]) return dag_.wdist[a] < dag_.wdist[b];
      return a < b;
    });
    dag_.level_offsets.push_back(dag_.order.size());
    dag_.order.insert(dag_.order.end(), wave_.begin(), wave_.end());
    // The wave's edge slice, child-major: a settled vertex gains no more
    // parents, so each member's list is final and becomes its run.
    dag_.edge_offsets.push_back(dag_.edges.size());
    for (VertexId v : wave_) {
      dag_.parent_run[v] = static_cast<std::uint32_t>(dag_.edges.size());
      const VertexId* parents = pred_storage_.data() + pred_begin_[v];
      for (std::uint32_t i = 0; i < pred_count_[v]; ++i) {
        dag_.edges.push_back({parents[i], v});
      }
    }

    ++last_stats_.waves;
    last_stats_.edges_examined += wave_edges;
    if (UseParallel(wave_edges)) {
      ++last_stats_.parallel_waves;
      RelaxWaveParallel();
    } else {
      RelaxWaveSequential();
    }
  }
  dag_.level_offsets.push_back(dag_.order.size());
  dag_.edge_offsets.push_back(dag_.edges.size());

  total_stats_.edges_examined += last_stats_.edges_examined;
  total_stats_.bucket_entries_scanned += last_stats_.bucket_entries_scanned;
  total_stats_.waves += last_stats_.waves;
  total_stats_.parallel_waves += last_stats_.parallel_waves;
}

void DeltaSpd::RelaxWaveSequential() {
  for (VertexId u : wave_) {
    const double du = dag_.wdist[u];
    const auto nbrs = graph_->neighbors(u);
    const auto wts = graph_->weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (settled_[v]) continue;
      RelaxCandidate(u, v, du + wts[i],
                     [this](std::size_t bucket, VertexId v2) {
                       PushBucket(bucket, v2);
                     });
    }
  }
}

void DeltaSpd::EnsureParallelScratch() {
  if (!range_pushes_.empty()) return;
  // Same destination-range geometry as BfsSpd::EnsureParallelScratch (a
  // pure function of |V|): one definition of "range of v" across the
  // intra-pass machinery.
  const std::size_t n = graph_->num_vertices();
  const std::size_t n_words = (n + 63) / 64;
  const std::size_t words_per_range =
      std::bit_ceil((n_words + kFrontierShards - 1) / kFrontierShards);
  range_shift_ =
      6 + static_cast<std::uint32_t>(std::countr_zero(words_per_range));
  num_ranges_ = (n_words + words_per_range - 1) / words_per_range;
  cand_buckets_.resize(kFrontierShards * num_ranges_);
  range_pushes_.resize(num_ranges_);
}

void DeltaSpd::RelaxWaveParallel() {
  EnsureParallelScratch();
  // Phase 1 — fan out over fixed shards of the (sorted) wave: each shard
  // examines its contiguous slice and buckets every candidate relaxation
  // by destination range. Wave members' wdist/sigma were finalized before
  // relaxation began and settled_ is not written during relaxation, so
  // this phase only reads shared state; all writes go to the shard's
  // private bucket row. The wdist[v] prefilter is an optimization only:
  // tentative distances never increase, so a candidate that neither
  // improves nor ties the wave-start wdist[v] can never do so against a
  // smaller value — phase 2 re-applies the exact relax rule regardless.
  ParallelShardedLevel(
      pool_.get(), kFrontierShards,
      [this](unsigned, std::size_t shard) {
        const auto [begin, end] =
            ShardBounds(wave_.size(), shard, kFrontierShards);
        std::vector<Candidate>* row =
            cand_buckets_.data() + shard * num_ranges_;
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId u = wave_[i];
          const double du = dag_.wdist[u];
          const auto nbrs = graph_->neighbors(u);
          const auto wts = graph_->weights(u);
          for (std::size_t j = 0; j < nbrs.size(); ++j) {
            const VertexId v = nbrs[j];
            if (settled_[v]) continue;
            const double candidate = du + wts[j];
            const double current = dag_.wdist[v];
            if (current >= 0.0 && candidate > current &&
                !Equal(candidate, current)) {
              continue;
            }
            row[v >> range_shift_].push_back({v, u, candidate});
          }
        }
      },
      // Nothing to merge: phase 2 consumes the buckets in shard order.
      [](std::size_t) {});

  // Phase 2 — fan out over destination ranges: each range owner commits
  // its targets' relaxations, walking the candidate buckets in ascending
  // shard order. Shards bucketed their slice of the sorted wave in order,
  // so for any fixed target the candidates arrive in ascending (wdist, id)
  // parent order — the exact sequential fold, making sigma sums and
  // predecessor lists bit-identical. Every write (wdist/sigma/preds) lands
  // in the owner's range; parent reads touch settled wave state only.
  // Bucket insertions cross ranges, so they are staged per range and
  // applied below in range order (the global bucket array is only ever
  // written by the calling thread).
  ParallelShardedLevel(
      pool_.get(), num_ranges_,
      [this](unsigned, std::size_t range) {
        std::vector<StagedPush>& pushes = range_pushes_[range];
        pushes.clear();
        for (std::size_t shard = 0; shard < kFrontierShards; ++shard) {
          std::vector<Candidate>& bucket =
              cand_buckets_[shard * num_ranges_ + range];
          for (const Candidate& c : bucket) {
            RelaxCandidate(c.u, c.v, c.candidate,
                           [&pushes](std::size_t b, VertexId v2) {
                             pushes.push_back({b, v2});
                           });
          }
          bucket.clear();
        }
      },
      [this](std::size_t range) {
        for (const StagedPush& push : range_pushes_[range]) {
          PushBucket(push.bucket, push.v);
        }
      });
}

}  // namespace mhbc
