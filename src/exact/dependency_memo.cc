#include "exact/dependency_memo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "sp/distance.h"
#include "util/common.h"

namespace mhbc {

namespace {

using Candidates = std::vector<std::pair<VertexId, DependencyMemo::EntryPtr>>;

/// The unweighted passes among `candidates` that survive every edit, tested
/// on the post-edit graph edit by edit under the class comment's rule and
/// work bound; adds the reverse passes run to *passes.
Candidates UnweightedSurvivors(const CsrGraph& new_graph,
                               std::span<const GraphEdit> edits,
                               Candidates candidates, std::uint64_t* passes) {
  // *passes is cumulative: the bound allows twice the candidates past it.
  const std::uint64_t limit = *passes + 2 * std::uint64_t{candidates.size()};
  for (const GraphEdit& edit : edits) {
    if (candidates.empty()) break;
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    if (*passes + 2 > limit) return {};
    const std::vector<std::uint32_t> to_u = BfsDistancesTo(new_graph, edit.u);
    const std::vector<std::uint32_t> to_v = BfsDistancesTo(new_graph, edit.v);
    *passes += 2;
    std::erase_if(candidates, [&](const auto& candidate) {
      const std::uint32_t du = to_u[candidate.first];
      const std::uint32_t dv = to_v[candidate.first];
      // Directed arc u→v: an unreached u survives; a reached u needs the
      // arc slack, which an unreached v (the largest u32) never is.
      if (new_graph.directed()) {
        return du != kUnreachedDistance &&
               static_cast<std::uint64_t>(du) + 1 <= dv;
      }
      return du != dv;
    });
  }
  return candidates;
}

/// minw of one edit's endpoints on the pre-edit graph.
struct EndpointMinWeights {
  double u = 0.0;
  double v = 0.0;
};

/// True when the edit batch provably leaves the weighted pass' DAG, and so
/// its dependency vector, unchanged (see the class comment). `wdists` holds
/// the pass' pre-edit weighted distances (-1 sentinel for unreached;
/// appended vertices index past the end and read as unreached); `minw[i]`
/// holds the pre-edit minimum incident weights of edits[i]'s endpoints, the
/// quantity the wave rule depends on, and `eps` is the canonical tie
/// epsilon. Per edit {u,v,w}:
/// both endpoints unreached survives (the edit cannot touch the pass'
/// component); one reached endpoint drops (an inserted edge extends the
/// component, and an undirected edge with one reached endpoint always made
/// the other reachable, so this only arises on insert); both reached
/// survives iff the edge is slack both ways under the canonical tie rule
/// AND w cannot change either endpoint's minimum incident weight. Sound by
/// induction over the batch: each passing edit changes no distance, no
/// tie, and no minw, so the stored vectors (and the pre-edit minw) stay
/// valid for the next edit.
bool WeightedPassSurvivesEdits(const std::vector<double>& wdists,
                               std::span<const GraphEdit> edits,
                               std::span<const EndpointMinWeights> minw,
                               double eps, bool directed) {
  const auto wdist_of = [&wdists](VertexId v) {
    return v < wdists.size() ? wdists[v] : -1.0;
  };
  const auto equal = [eps](double a, double b) {
    if (a == b) return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= eps * scale;
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const GraphEdit& edit = edits[i];
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    const double du = wdist_of(edit.u);
    const double dv = wdist_of(edit.v);
    const bool u_reached = du >= 0.0;
    const bool v_reached = dv >= 0.0;
    const double w = edit.weight;
    const bool insert = edit.kind == GraphEdit::Kind::kAddEdge;
    if (directed) {
      // Directed arc u→v: paths through it enter at u, so an unreached u
      // makes the edit invisible to the pass. A reached u with an
      // unreached v drops (an insert newly reaches v; a removal from a
      // reached u to an unreached v cannot exist). Both reached survives
      // iff the arc is slack one way — du + w strictly above dv and not
      // within the canonical tie window — and w cannot change v's
      // minimum *incoming* weight, the only minw the wave rule reads for
      // relaxations into v.
      if (!u_reached) continue;
      if (!v_reached) return false;
      if (du + w < dv || equal(du + w, dv)) return false;
      if (insert ? w < minw[i].v : w <= minw[i].v) return false;
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
    if (insert) {
      if (w < minw[i].u || w < minw[i].v) return false;
    } else {
      if (w <= minw[i].u || w <= minw[i].v) return false;
    }
  }
  return true;
}

}  // namespace

std::size_t DependencyMemo::EntryBytes(const CsrGraph& graph) {
  return static_cast<std::size_t>(graph.num_vertices()) * sizeof(double) *
         (graph.weighted() ? 2 : 1);
}

std::size_t DependencyMemo::CapacityFor(std::size_t budget_bytes,
                                        const CsrGraph& graph) {
  const std::size_t bytes_per_entry = EntryBytes(graph);
  if (bytes_per_entry == 0) return 0;
  return std::min<std::size_t>(budget_bytes / bytes_per_entry,
                               graph.num_vertices());
}

DependencyMemo::MinWeightFn DependencyMemo::MinWeightsOf(
    const CsrGraph& graph) {
  return [&graph](VertexId v) {
    double minw = std::numeric_limits<double>::infinity();
    for (const double w : graph.in_weights(v)) minw = std::min(minw, w);
    return minw;
  };
}

void DependencyMemo::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  if (capacity_ == 0) entries_.clear();
}

std::size_t DependencyMemo::capacity() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

DependencyMemo::EntryPtr DependencyMemo::Find(VertexId source) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(source);
  if (it == entries_.end()) return nullptr;
  ++hits_;
  return it->second;
}

DependencyMemo::EntryPtr DependencyMemo::Insert(
    VertexId source, const std::vector<double>& deps,
    const ShortestPathDag& dag, bool weighted) {
  // Copy outside the lock: other oracles keep reading meanwhile.
  auto entry = std::make_shared<Entry>();
  entry->deps = deps;
  if (weighted) entry->wdists = dag.wdist;
  const std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return entry;
  const auto it = entries_.find(source);
  if (it != entries_.end()) return it->second;  // another oracle was first
  // Bulk eviction keeps the policy trivial and deterministic; the memo
  // refills from the live working set within one query's worth of passes.
  if (entries_.size() >= capacity_) entries_.clear();
  ++inserts_;
  return entries_.emplace(source, std::move(entry)).first->second;
}

std::shared_ptr<DependencyMemo> DependencyMemo::Carry(
    const CsrGraph& new_graph, std::span<const GraphEdit> edits,
    double tie_epsilon, const MinWeightFn& old_min_weight) const {
  // Snapshot under the lock, then filter without it: oracles still on the
  // pre-edit graph keep reading and filling this memo meanwhile.
  auto next = std::make_shared<DependencyMemo>();
  Candidates entries;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    next->capacity_ = capacity_;
    next->hits_ = hits_;
    next->inserts_ = inserts_;
    next->invalidated_ = invalidated_;
    next->carry_passes_ = carry_passes_;
    entries.assign(entries_.begin(), entries_.end());
  }
  const bool weighted = new_graph.weighted();
  const std::size_t n = new_graph.num_vertices();
  const std::size_t held = entries.size();
  // A pass of the other distance kind (a weightedness flip) re-keys every
  // distance and never survives.
  std::erase_if(entries, [weighted](const auto& candidate) {
    return candidate.second->wdists.empty() == weighted;
  });
  if (!weighted) {
    entries = UnweightedSurvivors(new_graph, edits, std::move(entries),
                                  &next->carry_passes_);
  } else if (!entries.empty()) {
    MHBC_DCHECK(old_min_weight);
    // Appended vertices have no pre-edit minw; the test never reads one,
    // because they are unreached by every stored pass.
    const std::size_t old_n =
        n - static_cast<std::size_t>(std::count_if(
                edits.begin(), edits.end(), [](const GraphEdit& edit) {
                  return edit.kind == GraphEdit::Kind::kAddVertex;
                }));
    const auto minw_of = [&](VertexId v) {
      return v < old_n ? old_min_weight(v)
                       : std::numeric_limits<double>::infinity();
    };
    std::vector<EndpointMinWeights> minw;
    minw.reserve(edits.size());
    for (const GraphEdit& edit : edits) {
      minw.push_back(edit.kind == GraphEdit::Kind::kAddVertex
                         ? EndpointMinWeights{}
                         : EndpointMinWeights{minw_of(edit.u), minw_of(edit.v)});
    }
    std::erase_if(entries, [&](const auto& candidate) {
      return !WeightedPassSurvivesEdits(candidate.second->wdists, edits, minw,
                                        tie_epsilon, new_graph.directed());
    });
  }
  next->invalidated_ += held - entries.size();
  next->entries_.reserve(entries.size());
  for (auto& [source, entry] : entries) {
    // Surviving passes never reach an appended vertex: extend a copy with
    // the exact values a fresh pass on the new graph would store (the old
    // entry stays as it is for the pre-edit graph's readers).
    if (entry->deps.size() < n) {
      auto extended = std::make_shared<Entry>(*entry);
      extended->deps.resize(n, 0.0);
      if (weighted) extended->wdists.resize(n, -1.0);
      entry = std::move(extended);
    }
    next->entries_.emplace(source, std::move(entry));
  }
  return next;
}

DependencyMemoStats DependencyMemo::Stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  DependencyMemoStats stats;
  stats.entries = entries_.size();
  stats.capacity = capacity_;
  stats.hits = hits_;
  stats.inserts = inserts_;
  stats.invalidated = invalidated_;
  stats.carry_passes = carry_passes_;
  return stats;
}

}  // namespace mhbc
