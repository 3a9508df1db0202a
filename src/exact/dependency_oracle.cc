#include "exact/dependency_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mhbc {

namespace {

/// True when the edit batch provably leaves the pass' shortest-path DAG —
/// and therefore its dependency vector, bit-for-bit — unchanged. `hops`
/// holds the pass' pre-edit hop distances (kUnreachedDistance sentinel for
/// unreached vertices; appended vertices index past the end and read as
/// unreached). Unweighted criterion per edit {u,v}: the DAG is untouched
/// iff dist(s,u) == dist(s,v) — an intra-level edge lies on no shortest
/// path, removing one deletes no DAG edge and inserting one creates none,
/// and two equal *unreached* sentinels mean the edit happens outside the
/// pass' component entirely. Any distance mismatch can change distances,
/// sigma counts, or the level structure, so the pass is dropped. The test
/// is evaluated against the original distances for every edit in the
/// batch, which is sound by induction: each passing edit leaves all
/// distances unchanged, so the stored vector stays valid for the next
/// edit. Vertex appends never touch an existing pass.
bool PassSurvivesEdits(const std::vector<std::uint32_t>& hops,
                       std::span<const GraphEdit> edits, bool directed) {
  const auto dist_of = [&hops](VertexId v) {
    return v < hops.size() ? hops[v] : kUnreachedDistance;
  };
  for (const GraphEdit& edit : edits) {
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    if (directed) {
      // Directed arc u→v: only paths *through* the arc matter, and those
      // enter at u. An unreached u can never feed the arc (insert or
      // remove). A reached u leaves the DAG untouched iff the arc is
      // slack: dist(u)+1 > dist(v) means it lies on no shortest path
      // (remove deletes nothing) and cannot create or tie one (insert
      // adds nothing). dist(u)+1 <= dist(v) — including an unreached v,
      // which an insert would newly reach — can change distances or
      // sigma, so the pass drops. The comparison is overflow-safe: u is
      // reached, so dist(u)+1 fits.
      const std::uint32_t du = dist_of(edit.u);
      if (du == kUnreachedDistance) continue;
      if (static_cast<std::uint64_t>(du) + 1 <=
          static_cast<std::uint64_t>(dist_of(edit.v))) {
        return false;
      }
      continue;
    }
    if (dist_of(edit.u) != dist_of(edit.v)) return false;
  }
  return true;
}

/// Weighted companion of PassSurvivesEdits (see the class comment for the
/// full soundness argument). `wdists` holds the pass' pre-edit weighted
/// distances (-1 sentinel for unreached; appended vertices index past the
/// end and read as unreached); `delta` is the engine still bound to the
/// *pre-edit* graph, consulted for the canonical tie epsilon and the
/// per-vertex minimum incident weights the wave rule depends on. Per edit
/// {u,v,w}: both endpoints unreached survives (the edit cannot touch the
/// pass' component); one reached endpoint drops (an inserted edge extends
/// the component, and an undirected edge with one reached endpoint always
/// made the other reachable, so this only arises on insert); both reached
/// survives iff the edge is slack both ways under the canonical tie rule
/// AND w cannot change either endpoint's minimum incident weight. Sound by
/// induction over the batch: each passing edit changes no distance, no
/// tie, and no minw, so the stored vectors (and the old engine's minw
/// table) stay valid for the next edit.
bool WeightedPassSurvivesEdits(const std::vector<double>& wdists,
                               std::span<const GraphEdit> edits,
                               const DeltaSpd& delta, bool directed) {
  const auto wdist_of = [&wdists](VertexId v) {
    return v < wdists.size() ? wdists[v] : -1.0;
  };
  const double eps = delta.options().tie_epsilon;
  const auto equal = [eps](double a, double b) {
    if (a == b) return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= eps * scale;
  };
  for (const GraphEdit& edit : edits) {
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    const double du = wdist_of(edit.u);
    const double dv = wdist_of(edit.v);
    const bool u_reached = du >= 0.0;
    const bool v_reached = dv >= 0.0;
    const double w = edit.weight;
    if (directed) {
      // Directed arc u→v: paths through it enter at u, so an unreached u
      // makes the edit invisible to the pass. A reached u with an
      // unreached v drops (an insert newly reaches v; a removal from a
      // reached u to an unreached v cannot exist). Both reached survives
      // iff the arc is slack one way — du + w strictly above dv and not
      // within the canonical tie window — and w cannot change v's
      // minimum *incoming* weight, the only minw the wave rule reads for
      // relaxations into v (min_incident_weight is the min in-weight on
      // directed graphs).
      if (!u_reached) continue;
      if (!v_reached) return false;
      if (du + w < dv || equal(du + w, dv)) return false;
      const double minw_v = delta.min_incident_weight(edit.v);
      if (edit.kind == GraphEdit::Kind::kAddEdge) {
        if (w < minw_v) return false;
      } else {
        if (w <= minw_v) return false;
      }
      continue;
    }
    if (!u_reached && !v_reached) continue;
    if (u_reached != v_reached) return false;
    // Slack both ways: on no shortest path, creates none, ties nothing.
    if (du + w < dv || equal(du + w, dv)) return false;
    if (dv + w < du || equal(dv + w, du)) return false;
    // minw gate: the wave geometry consults min incident weights, so the
    // edit must leave both endpoints' minimum unchanged. An insert needs
    // w >= minw (it cannot become the new minimum); a removal needs
    // w > minw (at w == minw it may have *been* the minimum).
    const double minw_u = delta.min_incident_weight(edit.u);
    const double minw_v = delta.min_incident_weight(edit.v);
    if (edit.kind == GraphEdit::Kind::kAddEdge) {
      if (w < minw_u || w < minw_v) return false;
    } else {
      if (w <= minw_u || w <= minw_v) return false;
    }
  }
  return true;
}

}  // namespace

DependencyOracle::DependencyOracle(const CsrGraph& graph, SpdOptions spd)
    : graph_(&graph), spd_(spd), accumulator_(graph) {
  // The backward sweep borrows the pass engine's intra-pass pool (null
  // when spd.num_threads resolves to sequential), so one pass + accumulate
  // runs on one set of threads.
  if (graph.weighted()) {
    delta_ = std::make_unique<DeltaSpd>(graph, spd);
    accumulator_ =
        DependencyAccumulator(graph, delta_->intra_pool(), spd.parallel_grain);
  } else {
    bfs_ = std::make_unique<BfsSpd>(graph, spd);
    accumulator_ =
        DependencyAccumulator(graph, bfs_->intra_pool(), spd.parallel_grain);
  }
}

void DependencyOracle::set_cache_capacity(std::size_t max_entries) {
  cache_capacity_ = max_entries;
  if (cache_capacity_ == 0) cache_.clear();
}

void DependencyOracle::MergeCacheFrom(const DependencyOracle& other) {
  MHBC_DCHECK(graph_ == other.graph_);
  if (cache_capacity_ == 0) return;
  for (const auto& [source, entry] : other.cache_) {
    if (cache_.size() >= cache_capacity_) return;
    cache_.emplace(source, entry);  // no-op when the source is present
  }
}

void DependencyOracle::ApplyGraphDelta(const CsrGraph& new_graph,
                                       std::span<const GraphEdit> edits) {
  ++graph_epoch_;
  const bool weighted = graph_->weighted() && new_graph.weighted();
  const bool directed = graph_->directed();
  if (!edits.empty()) {
    if (graph_->weighted() != new_graph.weighted() ||
        graph_->directed() != new_graph.directed()) {
      // A weightedness or directedness flip re-keys every distance; drop
      // everything.
      invalidated_entries_ += cache_.size();
      cache_.clear();
    } else {
      for (auto it = cache_.begin(); it != cache_.end();) {
        const bool survives =
            weighted ? WeightedPassSurvivesEdits(it->second.wdists, edits,
                                                 *delta_, directed)
                     : PassSurvivesEdits(it->second.hops, edits, directed);
        if (survives) {
          ++it;
        } else {
          ++invalidated_entries_;
          it = cache_.erase(it);
        }
      }
    }
  }
  // Surviving passes never reach an appended vertex: extend with the
  // exact values a fresh pass on the new graph would store.
  const std::size_t n = new_graph.num_vertices();
  for (auto& [source, entry] : cache_) {
    entry.deps.resize(n, 0.0);
    if (weighted) {
      entry.wdists.resize(n, -1.0);
    } else {
      entry.hops.resize(n, kUnreachedDistance);
    }
  }
  graph_ = &new_graph;
  // Rebuild the pass engine first: the new accumulator borrows its
  // intra-pass pool, so the pool must already belong to the new engine.
  if (new_graph.weighted()) {
    delta_ = std::make_unique<DeltaSpd>(new_graph, spd_);
    bfs_.reset();
    accumulator_ = DependencyAccumulator(new_graph, delta_->intra_pool(),
                                         spd_.parallel_grain);
  } else {
    bfs_ = std::make_unique<BfsSpd>(new_graph, spd_);
    delta_.reset();
    accumulator_ = DependencyAccumulator(new_graph, bfs_->intra_pool(),
                                         spd_.parallel_grain);
  }
}

const std::vector<double>& DependencyOracle::Dependencies(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  if (cache_capacity_ > 0) {
    const auto it = cache_.find(source);
    if (it != cache_.end()) {
      ++cache_hits_;
      return it->second.deps;
    }
  }
  const ShortestPathDag& dag = Pass(source);
  const std::vector<double>& deps = delta_ ? accumulator_.Accumulate(*delta_)
                                           : accumulator_.Accumulate(*bfs_);
  if (cache_capacity_ > 0) {
    // Bulk eviction keeps the policy trivial and deterministic; the cache
    // refills from the live working set within one query's worth of passes.
    if (cache_.size() >= cache_capacity_) cache_.clear();
    CacheEntry entry;
    entry.deps = deps;
    // Each pass keeps its distances for the edit-survival test
    // (ApplyGraphDelta): hop distances unweighted, weighted distances
    // weighted.
    if (graph_->weighted()) {
      entry.wdists = dag.wdist;
    } else {
      entry.hops = dag.dist;
    }
    return cache_.emplace(source, std::move(entry)).first->second.deps;
  }
  return deps;
}

const ShortestPathDag& DependencyOracle::Pass(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  ++num_passes_;
  if (delta_) {
    delta_->Run(source);
    return delta_->dag();
  }
  bfs_->Run(source);
  return bfs_->dag();
}

double DependencyOracle::Dependency(VertexId source, VertexId target) {
  MHBC_DCHECK(target < graph_->num_vertices());
  return Dependencies(source)[target];
}

double DependencyOracle::EstimatorTerm(VertexId v, VertexId r) {
  const double n = static_cast<double>(graph_->num_vertices());
  MHBC_DCHECK(n >= 2.0);
  return Dependency(v, r) / (n - 1.0);
}

}  // namespace mhbc
