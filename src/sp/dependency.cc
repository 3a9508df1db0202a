#include "sp/dependency.h"

#include <bit>

#include "sp/bfs_spd.h"
#include "util/thread_pool.h"

namespace mhbc {

DependencyAccumulator::DependencyAccumulator(const CsrGraph& graph,
                                             ThreadPool* pool,
                                             std::uint64_t parallel_grain)
    : pool_(pool),
      parallel_grain_(parallel_grain),
      num_vertices_(graph.num_vertices()) {
  delta_.assign(graph.num_vertices(), 0.0);
  coeff_.assign(graph.num_vertices(), 0.0);
  touched_.reserve(graph.num_vertices());
}

const std::vector<double>& DependencyAccumulator::Accumulate(
    const ShortestPathDag& dag) {
  MHBC_DCHECK(dag.sigma.size() == num_vertices_);
  for (VertexId v : touched_) delta_[v] = 0.0;
  touched_.assign(dag.order.begin(), dag.order.end());
  // Level 0 is the source, which has no parents: its slice is empty.
  for (std::size_t level = dag.num_levels(); level-- > 1;) {
    // The level's deltas are final (every contribution to them came from
    // deeper slices), so its coefficients can all be taken first.
    const std::size_t level_end = dag.level_offsets[level + 1];
    for (std::size_t i = dag.level_offsets[level]; i < level_end; ++i) {
      const VertexId w = dag.order[i];
      coeff_[w] = (1.0 + delta_[w]) / static_cast<double>(dag.sigma[w]);
    }
    // The grain test reads the slice's edge count, a function of the
    // level alone, so the parallel-or-sequential choice is
    // thread-count-independent.
    const std::span<const SpdEdge> edges = dag.level_edges(level);
    if (pool_ == nullptr || edges.size() < parallel_grain_) {
      FoldLevelEdges(dag, level, coeff_.data(), delta_.data());
      continue;
    }
    EnsureParallelScratch();
    // Phase 1 — fixed shards of the edge slice bucket per-parent
    // contributions sigma_p * coeff_c by the parent's destination range;
    // all writes go to the shard's private bucket row.
    ParallelShardedLevel(
        pool_, BfsSpd::kFrontierShards,
        [this, &dag, edges](unsigned, std::size_t shard) {
          const auto [begin, end] =
              ShardBounds(edges.size(), shard, BfsSpd::kFrontierShards);
          std::vector<Contribution>* row =
              buckets_.data() + shard * num_ranges_;
          for (std::size_t i = begin; i < end; ++i) {
            const SpdEdge edge = edges[i];
            row[edge.parent >> range_shift_].push_back(
                {edge.parent, static_cast<double>(dag.sigma[edge.parent]) *
                                  coeff_[edge.child]});
          }
        },
        // Nothing to merge: phase 2 consumes the buckets in shard order.
        [](std::size_t) {});
    // Phase 2 — shards cover the slice in order, so folding the buckets
    // in ascending shard order meets each parent's contributions in slice
    // order: the level's canonical child order, FoldLevelEdges' exact
    // regrouping.
    FoldBuckets();
  }
  delta_[dag.source] = 0.0;  // dependency of s on itself is undefined/0
  return delta_;
}

void DependencyAccumulator::EnsureParallelScratch() {
  if (!buckets_.empty()) return;
  // Same destination-range geometry as BfsSpd::EnsureParallelScratch: a
  // pure function of |V| (64-alignment is irrelevant here — only delta_
  // entries are range-owned — but sharing the rule keeps one definition of
  // "range of v" across the intra-pass machinery).
  const std::size_t n_words = (num_vertices_ + 63) / 64;
  const std::size_t words_per_range = std::bit_ceil(
      (n_words + BfsSpd::kFrontierShards - 1) / BfsSpd::kFrontierShards);
  range_shift_ =
      6 + static_cast<std::uint32_t>(std::countr_zero(words_per_range));
  num_ranges_ = (n_words + words_per_range - 1) / words_per_range;
  buckets_.resize(BfsSpd::kFrontierShards * num_ranges_);
}

void DependencyAccumulator::FoldBuckets() {
  // Each range owner folds its delta entries, walking the buckets in
  // ascending shard order.
  ParallelShardedLevel(
      pool_, num_ranges_,
      [this](unsigned, std::size_t range) {
        for (std::size_t shard = 0; shard < BfsSpd::kFrontierShards;
             ++shard) {
          std::vector<Contribution>& bucket =
              buckets_[shard * num_ranges_ + range];
          for (const Contribution& contribution : bucket) {
            delta_[contribution.v] += contribution.c;
          }
          bucket.clear();
        }
      },
      [](std::size_t) {});
}

namespace {

/// The graph a "distance to t" BFS must run on: the graph itself when
/// undirected, its transpose when directed (dist(v, t) in G equals
/// dist(t, v) in Gᵀ). The transpose view borrows the graph's in-CSR
/// arrays, so it must not outlive `graph`.
CsrGraph ReverseViewFor(const CsrGraph& graph) {
  if (!graph.directed()) return graph;
  return CsrGraph::WrapExternal(graph.raw_in_offsets(),
                                graph.raw_in_adjacency(), {}, graph.name(),
                                /*directed=*/true);
}

}  // namespace

std::vector<double> PairDependencies(const CsrGraph& graph, VertexId s,
                                     VertexId t) {
  MHBC_DCHECK(s < graph.num_vertices());
  MHBC_DCHECK(t < graph.num_vertices());
  std::vector<double> result(graph.num_vertices(), 0.0);
  if (s == t) return result;
  const CsrGraph reverse = ReverseViewFor(graph);
  BfsSpd from_s(graph);
  BfsSpd from_t(reverse);
  from_s.Run(s);
  from_t.Run(t);
  const auto& ds = from_s.dag();
  const auto& dt = from_t.dag();
  if (ds.dist[t] == kUnreachedDistance) return result;
  const std::uint32_t dist_st = ds.dist[t];
  const double sigma_st = static_cast<double>(ds.sigma[t]);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (v == s || v == t) continue;
    if (ds.dist[v] == kUnreachedDistance || dt.dist[v] == kUnreachedDistance)
      continue;
    if (ds.dist[v] + dt.dist[v] == dist_st) {
      result[v] = static_cast<double>(ds.sigma[v]) *
                  static_cast<double>(dt.sigma[v]) / sigma_st;
    }
  }
  return result;
}

SigmaCount CountPathsThrough(const CsrGraph& graph, VertexId s, VertexId t,
                             VertexId v) {
  MHBC_DCHECK(v != s && v != t);
  const CsrGraph reverse = ReverseViewFor(graph);
  BfsSpd from_s(graph);
  BfsSpd from_t(reverse);
  from_s.Run(s);
  from_t.Run(t);
  const auto& ds = from_s.dag();
  const auto& dt = from_t.dag();
  if (ds.dist[t] == kUnreachedDistance) return 0;
  if (ds.dist[v] == kUnreachedDistance || dt.dist[v] == kUnreachedDistance)
    return 0;
  if (ds.dist[v] + dt.dist[v] != ds.dist[t]) return 0;
  return ds.sigma[v] * dt.sigma[v];
}

}  // namespace mhbc
