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
  state_.assign(n, kWaiting);

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
  inv_width_ = 1.0 / bucket_width_;

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
  bucket_end_ = std::max(bucket_end_, bucket + 1);
}

void DeltaSpd::PullBucket(std::size_t b) {
  std::vector<VertexId>& bucket = buckets_[b];
  last_stats_.entries_scanned += bucket.size();
  for (VertexId v : bucket) {
    if (state_[v] != kWaiting) continue;  // stale: pulled or placed nearer
    MHBC_DCHECK(BucketOf(dag_.wdist[v]) == b);
    state_[v] = kNear;
    near_.push_back(v);
    near_min_ = std::min(near_min_, dag_.wdist[v]);
  }
  bucket.clear();
}

void DeltaSpd::Place(double candidate, VertexId v) {
  if (state_[v] == kNear) {  // an improvement never leaves the list
    near_min_ = std::min(near_min_, candidate);
    return;
  }
  const std::size_t bucket = BucketOf(candidate);
  if (bucket < horizon_) {
    state_[v] = kNear;
    near_.push_back(v);
    near_min_ = std::min(near_min_, candidate);
  } else {
    PushBucket(bucket, v);
  }
}

template <typename Improved>
void DeltaSpd::RelaxCandidate(VertexId u, VertexId v, double candidate,
                              Improved&& improved) {
  const double current = dag_.wdist[v];
  if (current < 0.0 ||
      candidate < current - options_.tie_epsilon * candidate) {
    // Strict improvement: reset predecessor set, re-queue v.
    dag_.wdist[v] = candidate;
    dag_.sigma[v] = dag_.sigma[u];
    pred_count_[v] = 1;
    pred_storage_[pred_begin_[v]] = u;
    improved(candidate, v);
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
  // settled (the wave loop drains the near list and every bucket), so
  // the previous order is the complete touched set.
  for (VertexId v : dag_.order) {
    dag_.wdist[v] = -1.0;
    dag_.sigma[v] = 0;
    pred_count_[v] = 0;
    state_[v] = kWaiting;
  }
  dag_.order.clear();
  dag_.level_offsets.clear();
  dag_.edges.clear();
  dag_.edge_offsets.clear();
  dag_.source = source;
  last_stats_ = Stats();
  bucket_end_ = 0;

  dag_.wdist[source] = 0.0;
  dag_.sigma[source] = 1;
  horizon_ = 1;  // BucketOf(0) == 0
  near_.assign(1, source);
  near_min_ = 0.0;
  state_[source] = kNear;

  for (;;) {
    // Past the near list, the lowest non-empty bucket holds the nearest
    // waiting vertices.
    while (near_.empty() && horizon_ < bucket_end_) PullBucket(horizon_++);
    if (near_.empty()) break;

    // Every waiting vertex sits in a bucket at or past the horizon, above
    // every near vertex's, so the near list holds the global minimum.
    const double d_min = near_min_;
    // Wave members satisfy wdist(v) < d_min + minw(v) <= d_min +
    // max_min_incident_, so a horizon past that bucket puts every member
    // on the near list. The 2x slack lets the horizon, and the bucket
    // pulls, move once per max_min_incident_ of progress, not every wave.
    const std::size_t target =
        BucketOf(d_min + 2.0 * max_min_incident_) + 1;
    for (; horizon_ < std::min(target, bucket_end_); ++horizon_) {
      PullBucket(horizon_);
    }
    horizon_ = std::max(horizon_, target);

    // Split the near list into the wave's (wdist, id) keys and the
    // vertices that stay, branch-free: both slots are written, and the
    // member test advances one cursor. The stayers compact in place, and
    // their minimum restarts near_min_.
    if (wave_.size() < near_.size()) wave_.resize(near_.size());
    last_stats_.entries_scanned += near_.size();
    constexpr double kInfinity = std::numeric_limits<double>::infinity();
    std::size_t members = 0;
    std::size_t stayers = 0;
    double stay_min = kInfinity;
    for (std::size_t i = 0; i < near_.size(); ++i) {
      const VertexId v = near_[i];
      const double d = dag_.wdist[v];
      const bool member = d < d_min + min_incident_[v];
      wave_[members] = {d, v};
      near_[stayers] = v;
      stay_min = std::min(stay_min, member ? kInfinity : d);
      members += member ? 1 : 0;
      stayers += member ? 0 : 1;
    }
    near_.resize(stayers);
    near_min_ = stay_min;
    // The d_min achiever always qualifies (minw > 0), so progress is
    // guaranteed.
    MHBC_DCHECK(members > 0);

    // Canonicalize the wave: ascending (wdist, id). This fixes the settle
    // order, the per-target relaxation fold order, and the level slice the
    // backward sweep walks — independent of the near list's order.
    const std::span<WaveKey> wave(wave_.data(), members);
    std::sort(wave.begin(), wave.end(),
              [](const WaveKey& a, const WaveKey& b) {
                return a.wdist < b.wdist || (a.wdist == b.wdist && a.v < b.v);
              });

    // Settle the wave and record it: its level in `order`, and its edge
    // slice, child-major. A settled vertex gains no more parents, so each
    // member's list is final and becomes its run.
    dag_.level_offsets.push_back(dag_.order.size());
    dag_.edge_offsets.push_back(dag_.edges.size());
    std::uint64_t wave_edges = 0;
    for (const WaveKey& key : wave) {
      const VertexId v = key.v;
      state_[v] = kSettled;
      dag_.order.push_back(v);
      wave_edges += graph_->degree(v);
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
      RelaxWaveParallel(wave);
    } else {
      RelaxWaveSequential(wave);
    }
  }
  dag_.level_offsets.push_back(dag_.order.size());
  dag_.edge_offsets.push_back(dag_.edges.size());

  total_stats_.edges_examined += last_stats_.edges_examined;
  total_stats_.entries_scanned += last_stats_.entries_scanned;
  total_stats_.waves += last_stats_.waves;
  total_stats_.parallel_waves += last_stats_.parallel_waves;
}

void DeltaSpd::RelaxWaveSequential(std::span<const WaveKey> wave) {
  for (const WaveKey& key : wave) {
    const VertexId u = key.v;
    const auto nbrs = graph_->neighbors(u);
    const auto wts = graph_->weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (state_[v] == kSettled) continue;
      RelaxCandidate(u, v, key.wdist + wts[i],
                     [this](double candidate, VertexId v2) {
                       Place(candidate, v2);
                     });
    }
  }
}

void DeltaSpd::EnsureParallelScratch() {
  if (!range_places_.empty()) return;
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
  range_places_.resize(num_ranges_);
}

void DeltaSpd::RelaxWaveParallel(std::span<const WaveKey> wave) {
  EnsureParallelScratch();
  // Phase 1 — fan out over fixed shards of the (sorted) wave: each shard
  // examines its contiguous slice and buckets every candidate relaxation
  // by destination range. Wave members' wdist/sigma were finalized before
  // relaxation began and state_ is not written until placement, so
  // this phase only reads shared state; all writes go to the shard's
  // private candidate row. The wdist[v] prefilter is an optimization only:
  // tentative distances never increase, so a candidate that neither
  // improves nor ties the wave-start wdist[v] can never do so against a
  // smaller value — phase 2 re-applies the exact relax rule regardless.
  ParallelShardedLevel(
      pool_.get(), kFrontierShards,
      [this, wave](unsigned, std::size_t shard) {
        const auto [begin, end] =
            ShardBounds(wave.size(), shard, kFrontierShards);
        std::vector<Candidate>* row =
            cand_buckets_.data() + shard * num_ranges_;
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId u = wave[i].v;
          const auto nbrs = graph_->neighbors(u);
          const auto wts = graph_->weights(u);
          for (std::size_t j = 0; j < nbrs.size(); ++j) {
            const VertexId v = nbrs[j];
            if (state_[v] == kSettled) continue;
            const double candidate = wave[i].wdist + wts[j];
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
  // Queue placement writes the shared near list and buckets, so strict
  // improvements are staged per range and placed below, in range order,
  // by the calling thread alone.
  ParallelShardedLevel(
      pool_.get(), num_ranges_,
      [this](unsigned, std::size_t range) {
        std::vector<StagedPlace>& places = range_places_[range];
        places.clear();
        for (std::size_t shard = 0; shard < kFrontierShards; ++shard) {
          std::vector<Candidate>& bucket =
              cand_buckets_[shard * num_ranges_ + range];
          for (const Candidate& c : bucket) {
            RelaxCandidate(c.u, c.v, c.candidate,
                           [&places](double candidate, VertexId v2) {
                             places.push_back({candidate, v2});
                           });
          }
          bucket.clear();
        }
      },
      [this](std::size_t range) {
        for (const StagedPlace& place : range_places_[range]) {
          Place(place.candidate, place.v);
        }
      });
}

}  // namespace mhbc
