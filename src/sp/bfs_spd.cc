#include "sp/bfs_spd.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/thread_pool.h"

namespace mhbc {

namespace {

// CanonicalizeLevel's cost test: a level goes through the level bitmap
// only when its word span is at most kBitmapMaxWordsPerId words per id,
// which bounds the drain's word reads per id. A sparser level (a narrow
// frontier scattered over the id space) keeps std::sort.
constexpr std::size_t kBitmapMaxWordsPerId = 16;

// Run's reset rule: a previous pass that reached at least n /
// kBulkResetDivisor vertices is undone with whole-array fills (sequential
// stores), a smaller one through its touched list.
constexpr std::size_t kBulkResetDivisor = 8;

}  // namespace

BfsSpd::BfsSpd(const CsrGraph& graph, SpdOptions options)
    : graph_(&graph), options_(options) {
  const VertexId n = graph.num_vertices();
  dag_.dist.assign(n, kUnreachedDistance);
  dag_.sigma.assign(n, 0);
  dag_.order.reserve(n);
  // Every SPD edge is a distinct in-arc of its child, so the in-arc count
  // bounds a pass' edges — and every speculative store of the bottom-up
  // scan, which writes one slot past the edges kept so far.
  dag_.edges.resize(graph.raw_in_adjacency().size());
  dag_.weighted = false;
  frontier_.reserve(n);
  next_.ids.reserve(n);
  level_bits_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  // num_threads == 0 means "inherit": standalone construction has nothing
  // to inherit from, so it stays sequential; an owning engine substitutes
  // its resolved count before constructing us (see BetweennessEngine).
  const unsigned intra = options_.num_threads == 0 ? 1 : options_.num_threads;
  if (intra > 1) pool_ = std::make_unique<ThreadPool>(intra);
}

BfsSpd::~BfsSpd() = default;

void BfsSpd::Run(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  // Undo the previous pass. A pass that reached a large share of the graph
  // is cheaper to undo with whole-array fills than with scattered stores
  // through its touched list; the result is the same either way. The edge
  // slices need no reset: their offsets restart and their slots are
  // rewritten before they are read.
  const bool reset_bitmap = !visited_.empty();
  if (dag_.order.size() >= graph_->num_vertices() / kBulkResetDivisor) {
    std::fill(dag_.dist.begin(), dag_.dist.end(), kUnreachedDistance);
    std::fill(dag_.sigma.begin(), dag_.sigma.end(), SigmaCount{0});
    if (reset_bitmap) std::fill(visited_.begin(), visited_.end(), 0);
  } else {
    for (VertexId v : dag_.order) {
      dag_.dist[v] = kUnreachedDistance;
      dag_.sigma[v] = 0;
      if (reset_bitmap) ClearVisited(v);
    }
  }
  dag_.order.clear();
  dag_.level_offsets.clear();
  dag_.edge_offsets.assign(1, 0);  // slice 0: no edges into the source
  num_edges_ = 0;
  dag_.source = source;
  last_stats_ = Stats();

  // Degenerate graphs take the classic path unconditionally: with no edges
  // (or a single vertex) there is no direction to optimize, and the hybrid
  // scratch must stay untouched (it is lazily allocated by the first real
  // hybrid pass).
  const bool degenerate =
      graph_->num_vertices() <= 1 || graph_->num_edges() == 0;
  if (options_.kernel == SpdKernel::kClassic || degenerate) {
    RunClassic(source);
  } else {
    RunHybrid(source);
  }

  total_stats_.edges_examined += last_stats_.edges_examined;
  total_stats_.top_down_levels += last_stats_.top_down_levels;
  total_stats_.bottom_up_levels += last_stats_.bottom_up_levels;
  total_stats_.direction_switches += last_stats_.direction_switches;
}

void BfsSpd::RunClassic(VertexId source) {
  dag_.dist[source] = 0;
  dag_.sigma[source] = 1;
  frontier_.clear();
  frontier_.push_back(source);
  // Degree sum of the current frontier, maintained incrementally (add each
  // discovery's degree) so the parallel-or-sequential choice for a level
  // is known before expanding it.
  std::uint64_t frontier_edges = graph_->degree(source);
  std::uint32_t depth = 0;
  while (!frontier_.empty()) {
    BeginLevel();
    last_stats_.edges_examined += frontier_edges;
    ++last_stats_.top_down_levels;
    if (UseParallel(frontier_edges)) {
      TopDownLevelParallel(depth, /*mark_visited=*/false);
    } else {
      TopDownLevel(depth, /*mark_visited=*/false);
    }
    EndLevel();
    frontier_edges = next_.out_degrees;
    ++depth;
  }
  dag_.level_offsets.push_back(dag_.order.size());
}

void BfsSpd::RunHybrid(VertexId source) {
  const VertexId n = graph_->num_vertices();
  if (visited_.empty()) {
    visited_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  }
  // Bits past n in the last bitmap word never correspond to vertices; mask
  // them out of every bottom-up word scan.
  const std::uint64_t tail_mask =
      (n & 63) ? ((std::uint64_t{1} << (n & 63)) - 1) : ~std::uint64_t{0};

  dag_.dist[source] = 0;
  dag_.sigma[source] = 1;
  SetVisited(source);
  frontier_.clear();
  frontier_.push_back(source);
  // Beamer's two aggregates: edges a top-down step would examine
  // (out-degree sum of the frontier) vs edges a bottom-up step would
  // examine (in-degree sum of unvisited vertices — the bottom-up parent
  // scan walks in-edges). Both are maintained incrementally; on
  // undirected graphs the two degree notions coincide.
  std::uint64_t frontier_edges = graph_->degree(source);
  std::uint64_t unexplored_edges =
      graph_->raw_in_adjacency().size() - graph_->in_degree(source);
  std::size_t prev_frontier_size = 0;
  bool bottom_up = false;
  std::uint32_t depth = 0;

  while (!frontier_.empty()) {
    BeginLevel();

    // Per-level direction choice (Beamer's edge-count test). Expanding
    // this frontier top-down examines m_f edges (the frontier's degree
    // sum); bottom-up examines m_u (the unvisited vertices' degree sum)
    // but at a per-edge cost alpha times cheaper — the bottom-up loop is a
    // sequential ascending scan with no discovery bookkeeping and no
    // branch on the parent test, and it emits its level already in
    // canonical order. So bottom-up is the profitable direction for a
    // level exactly when m_f * alpha > m_u; the exit test is the negation,
    // and entry is additionally gated on a growing frontier (a shrinking
    // one is draining a tail top-down handles better — without this gate,
    // plateaued frontiers on high-diameter graphs flap directions for zero
    // savings). Beamer's n/beta tail rule is kept as a secondary exit.
    const bool growing = frontier_.size() >= prev_frontier_size;
    const bool profitable =
        options_.alpha > 0.0 &&
        static_cast<double>(frontier_edges) * options_.alpha >
            static_cast<double>(unexplored_edges);
    const bool was_bottom_up = bottom_up;
    if (!bottom_up) {
      bottom_up = growing && profitable;
    } else if (!profitable ||
               (!growing && options_.beta > 0.0 &&
                static_cast<double>(frontier_.size()) * options_.beta <
                    static_cast<double>(n))) {
      bottom_up = false;
    }
    if (bottom_up != was_bottom_up) ++last_stats_.direction_switches;
    prev_frontier_size = frontier_.size();

    if (bottom_up) {
      ++last_stats_.bottom_up_levels;
      last_stats_.edges_examined += unexplored_edges;
      if (UseParallel(unexplored_edges)) {
        BottomUpLevelParallel(depth, tail_mask);
      } else {
        ScanBottomUp(
            0, visited_.size(), depth, tail_mask,
            [this, depth](VertexId u) { return dag_.dist[u] == depth; },
            dag_.edges.data() + num_edges_, &next_);
      }
    } else {
      ++last_stats_.top_down_levels;
      last_stats_.edges_examined += frontier_edges;
      if (UseParallel(frontier_edges)) {
        TopDownLevelParallel(depth, /*mark_visited=*/true);
      } else {
        TopDownLevel(depth, /*mark_visited=*/true);
      }
    }
    EndLevel();
    unexplored_edges -= next_.in_degrees;
    frontier_edges = next_.out_degrees;
    ++depth;
  }
  dag_.level_offsets.push_back(dag_.order.size());
}

void BfsSpd::BeginLevel() {
  // The frontier holds level l in canonical order, and the edges recorded
  // so far are those into levels <= l: slice l ends at num_edges_. After
  // the last level both offset arrays hold num_levels + 1 entries (Run
  // seeds edge_offsets with slice 0's start; level_offsets gets its end
  // after the loop).
  dag_.level_offsets.push_back(dag_.order.size());
  dag_.order.insert(dag_.order.end(), frontier_.begin(), frontier_.end());
  dag_.edge_offsets.push_back(num_edges_);
}

void BfsSpd::EndLevel() {
  num_edges_ += next_.num_edges;
  frontier_.swap(next_.ids);
}

void BfsSpd::TopDownLevel(std::uint32_t depth, bool mark_visited) {
  std::vector<VertexId>& next = next_.ids;
  next.clear();
  SpdEdge* const edges = dag_.edges.data() + num_edges_;
  std::size_t num_edges = 0;
  std::uint64_t out_degrees = 0;
  std::uint64_t in_degrees = 0;
  for (VertexId u : frontier_) {
    const SigmaCount su = dag_.sigma[u];
    for (VertexId v : graph_->neighbors(u)) {
      if (dag_.dist[v] == kUnreachedDistance) {
        dag_.dist[v] = depth + 1;
        if (mark_visited) SetVisited(v);
        next.push_back(v);
        out_degrees += graph_->degree(v);
        in_degrees += graph_->in_degree(v);
      }
      if (dag_.dist[v] == depth + 1) {
        // The frontier is sorted and so is every CSR row: sigma folds in
        // ascending parent id — the order a bottom-up in-neighbor scan
        // meets them in — and u's children are recorded ascending.
        dag_.sigma[v] += su;
        edges[num_edges++] = {u, v};
      }
    }
  }
  next_.num_edges = num_edges;
  next_.out_degrees = out_degrees;
  next_.in_degrees = in_degrees;
  // Canonicalize the next level: ascending vertex id, so the stored order
  // (and the frontier the next level expands, which fixes the sigma fold)
  // is independent of discovery order.
  CanonicalizeLevel(&next);
}

template <typename IsParent>
void BfsSpd::ScanBottomUp(std::size_t word_begin, std::size_t word_end,
                          std::uint32_t depth, std::uint64_t tail_mask,
                          const IsParent& is_parent, SpdEdge* edges,
                          LevelSegment* segment) {
  std::vector<VertexId>& ids = segment->ids;
  ids.clear();
  std::size_t num_edges = 0;
  std::uint64_t out_degrees = 0;
  std::uint64_t in_degrees = 0;
  // Scan unvisited vertices in ascending id (so the level needs no sort
  // and each parent's children are recorded ascending) and gather all
  // in-edge parents at the current depth; no early exit — exact sigma
  // needs every parent.
  for (std::size_t word = word_begin; word < word_end; ++word) {
    std::uint64_t unvisited = ~visited_[word];
    if (word + 1 == visited_.size()) unvisited &= tail_mask;
    while (unvisited != 0) {
      const VertexId v =
          static_cast<VertexId>((word << 6) + std::countr_zero(unvisited));
      unvisited &= unvisited - 1;
      // Branch-free: the parent test is data-dependent, so a branch on it
      // would mispredict often. Every in-neighbor is stored as a candidate
      // edge in the next free slot and kept by advancing the count. On a
      // miss sigma adds sigma[v] instead of sigma[u]: v is unvisited, so
      // that is +0.0 and sv + 0.0 == sv (sv >= +0) — the branchy fold bit
      // for bit — and no read touches a vertex another range owner may be
      // settling. The index is selected with a mask, which compilers keep
      // branch-free (a ?: here compiles back into the branch).
      SpdEdge* const out = edges + num_edges;
      std::size_t parents = 0;
      SigmaCount sv = 0;
      for (VertexId u : graph_->in_neighbors(v)) {
        const bool parent = is_parent(u);
        out[parents] = {u, v};
        parents += parent;
        const VertexId keep = VertexId{0} - static_cast<VertexId>(parent);
        sv += dag_.sigma[v ^ ((u ^ v) & keep)];
      }
      if (parents != 0) {
        dag_.dist[v] = depth + 1;
        dag_.sigma[v] = sv;
        SetVisited(v);
        ids.push_back(v);
        out_degrees += graph_->degree(v);
        in_degrees += graph_->in_degree(v);
        num_edges += parents;
      }
    }
  }
  segment->num_edges = num_edges;
  segment->out_degrees = out_degrees;
  segment->in_degrees = in_degrees;
}

void BfsSpd::CanonicalizeLevel(std::vector<VertexId>* ids) {
  if (ids->size() < 2) return;
  const auto [lo, hi] = std::minmax_element(ids->begin(), ids->end());
  const std::size_t word_begin = *lo >> 6;
  const std::size_t word_end = (*hi >> 6) + 1;
  if (word_end - word_begin > kBitmapMaxWordsPerId * ids->size()) {
    std::sort(ids->begin(), ids->end());
    return;
  }
  // Ids are distinct, so the bitmap holds each once; reading the span's
  // words in order yields them ascending, and the count comes out equal.
  for (VertexId v : *ids) {
    level_bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  VertexId* out = ids->data();
  for (std::size_t word = word_begin; word < word_end; ++word) {
    std::uint64_t bits = level_bits_[word];
    if (bits == 0) continue;
    level_bits_[word] = 0;
    while (bits != 0) {
      *out++ = static_cast<VertexId>((word << 6) + std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
}

void BfsSpd::EnsureParallelScratch() {
  if (!range_segments_.empty()) return;
  const std::size_t n = graph_->num_vertices();
  const std::size_t n_words = (n + 63) / 64;
  // Destination ranges are contiguous 64-aligned vertex-id slices — a pure
  // function of |V|, never of the thread count: the smallest power-of-two
  // word span that yields at most kFrontierShards ranges. Word alignment
  // makes every visited-bitmap word single-owner, so bottom-up steps and
  // hybrid discovery write the bitmap without synchronization.
  const std::size_t words_per_range =
      std::bit_ceil((n_words + kFrontierShards - 1) / kFrontierShards);
  range_shift_ =
      6 + static_cast<std::uint32_t>(std::countr_zero(words_per_range));
  num_ranges_ = (n_words + words_per_range - 1) / words_per_range;
  buckets_.resize(kFrontierShards * num_ranges_);
  range_segments_.resize(num_ranges_);
  // A range's edges into one level are in-arcs of its vertices, so its
  // in-CSR span holds them; each level step reuses the region.
  range_edges_.resize(graph_->raw_in_adjacency().size());
  range_edge_begin_.resize(num_ranges_);
  const std::span<const EdgeId> in_offsets = graph_->raw_in_offsets();
  for (std::size_t range = 0; range < num_ranges_; ++range) {
    range_edge_begin_[range] = in_offsets[range << range_shift_];
  }
}

void BfsSpd::AppendSegment(std::size_t range) {
  const LevelSegment& segment = range_segments_[range];
  next_.ids.insert(next_.ids.end(), segment.ids.begin(), segment.ids.end());
  const SpdEdge* const edges =
      range_edges_.data() + range_edge_begin_[range];
  std::copy(edges, edges + segment.num_edges,
            dag_.edges.data() + num_edges_ + next_.num_edges);
  next_.num_edges += segment.num_edges;
  next_.out_degrees += segment.out_degrees;
  next_.in_degrees += segment.in_degrees;
}

void BfsSpd::ClearNext() {
  next_.ids.clear();
  next_.num_edges = 0;
  next_.out_degrees = 0;
  next_.in_degrees = 0;
}

void BfsSpd::TopDownLevelParallel(std::uint32_t depth, bool mark_visited) {
  EnsureParallelScratch();
  // Phase 1 — fan out over fixed frontier shards: each shard examines its
  // contiguous slice of the (sorted) frontier and buckets every candidate
  // DAG edge by destination range. dist is read-only in this phase, so a
  // vertex is bucketed once per frontier parent that reaches it; all
  // writes go to the shard's private bucket row.
  ParallelShardedLevel(
      pool_.get(), kFrontierShards,
      [this](unsigned, std::size_t shard) {
        const auto [begin, end] =
            ShardBounds(frontier_.size(), shard, kFrontierShards);
        std::vector<TdCandidate>* row = buckets_.data() + shard * num_ranges_;
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId u = frontier_[i];
          for (VertexId v : graph_->neighbors(u)) {
            if (dag_.dist[v] == kUnreachedDistance) {
              row[v >> range_shift_].push_back({v, u});
            }
          }
        }
      },
      // Nothing to merge: phase 2 consumes the buckets in shard order.
      [](std::size_t) {});

  // Phase 2 — fan out over destination ranges: each range owner settles
  // its vertices. First touch assigns dist (and the visited bit); every
  // candidate then folds sigma and records its edge in the range's edge
  // region. Buckets are walked in ascending shard order and each shard
  // bucketed its parents in ascending frontier order, so for any fixed v
  // the contributions arrive in ascending parent id — the exact fold order
  // of the sequential kernels, making the (floating-point) sigma sums
  // bit-identical — and each parent's children (one shard, one CSR row)
  // are recorded ascending. Every write lands in the owner's range or
  // region; sigma/dist reads of parents touch the previous level only,
  // which no one writes here.
  ClearNext();
  ParallelShardedLevel(
      pool_.get(), num_ranges_,
      [this, depth, mark_visited](unsigned, std::size_t range) {
        LevelSegment& segment = range_segments_[range];
        segment.ids.clear();
        SpdEdge* const edges = range_edges_.data() + range_edge_begin_[range];
        std::size_t num_edges = 0;
        std::uint64_t out_degrees = 0;
        std::uint64_t in_degrees = 0;
        for (std::size_t shard = 0; shard < kFrontierShards; ++shard) {
          std::vector<TdCandidate>& bucket =
              buckets_[shard * num_ranges_ + range];
          for (const TdCandidate& c : bucket) {
            if (dag_.dist[c.v] == kUnreachedDistance) {
              dag_.dist[c.v] = depth + 1;
              if (mark_visited) SetVisited(c.v);
              segment.ids.push_back(c.v);
              out_degrees += graph_->degree(c.v);
              in_degrees += graph_->in_degree(c.v);
            }
            dag_.sigma[c.v] += dag_.sigma[c.u];
            edges[num_edges++] = {c.u, c.v};
          }
          bucket.clear();
        }
        // Ranges partition the id space in order, so locally sorted
        // segments concatenate into the globally sorted next frontier. The
        // segment's ids, and so the level-bitmap words CanonicalizeLevel
        // touches, lie in this 64-aligned range: no other owner writes them.
        CanonicalizeLevel(&segment.ids);
        segment.num_edges = num_edges;
        segment.out_degrees = out_degrees;
        segment.in_degrees = in_degrees;
      },
      [this](std::size_t range) { AppendSegment(range); });
}

void BfsSpd::BottomUpLevelParallel(std::uint32_t depth,
                                   std::uint64_t tail_mask) {
  EnsureParallelScratch();
  // Publish the current frontier in the level bitmap. The parent test
  // below must not read dist[u]: a neighbor u may be a *newly discovered*
  // vertex whose dist another range owner is writing concurrently.
  // Frontier bits are written before the fan-out, read-only during it, and
  // cleared after, so the bitmap is all-zero between steps.
  for (VertexId u : frontier_) {
    level_bits_[u >> 6] |= std::uint64_t{1} << (u & 63);
  }
  const std::uint32_t word_shift = range_shift_ - 6;
  // One fan-out over word ranges: each owner runs the sequential scan body
  // on its words, recording edges in its region. Every write — dist,
  // sigma, the visited word, the region — belongs to the owned range;
  // parent reads (frontier bit, sigma) touch the stable previous level
  // only. The scan visits candidates in ascending id, so each segment is
  // born sorted and each parent's children are recorded ascending.
  ClearNext();
  ParallelShardedLevel(
      pool_.get(), num_ranges_,
      [this, depth, tail_mask, word_shift](unsigned, std::size_t range) {
        const std::size_t word_begin = range << word_shift;
        const std::size_t word_end = std::min(
            word_begin + (std::size_t{1} << word_shift), visited_.size());
        ScanBottomUp(
            word_begin, word_end, depth, tail_mask,
            [this](VertexId u) {
              return ((level_bits_[u >> 6] >> (u & 63)) & 1) != 0;
            },
            range_edges_.data() + range_edge_begin_[range],
            &range_segments_[range]);
      },
      [this](std::size_t range) { AppendSegment(range); });
  for (VertexId u : frontier_) {
    level_bits_[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
  }
}

}  // namespace mhbc
