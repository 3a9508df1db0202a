#include "exact/dependency_memo.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sp/distance.h"
#include "util/common.h"

namespace mhbc {

namespace {

using Candidates = std::vector<std::pair<VertexId, DependencyMemo::EntryPtr>>;

/// The unweighted rule for one edge edit: du = d'(s,u), dv = d'(s,v).
bool UnweightedPassKeeps(std::uint32_t du, std::uint32_t dv, bool directed) {
  // Directed arc u→v: an unreached u survives; a reached u needs the arc
  // slack, which an unreached v (the largest u32) never is.
  if (directed) {
    return du == kUnreachedDistance || std::uint64_t{du} + 1 > dv;
  }
  return du == dv;
}

/// The weighted rule for one edge edit {u,v,w}: du = d'(s,u), dv = d'(s,v)
/// (negative: unreached), `window` is W and `minw_keeps` the edit's minw
/// gate (see the class comment).
bool WeightedPassKeeps(double du, double dv, double w, bool minw_keeps,
                       double window, bool directed) {
  // from + w exceeds `to` by more than the relative window.
  const auto slack = [w, window](double from, double to) {
    const double path = from + w;
    return path > to && path - to > window * path;
  };
  const bool u_reached = du >= 0.0;
  const bool v_reached = dv >= 0.0;
  if (directed) {
    // Paths through the arc enter at u. A reached u with an unreached v
    // drops: the arc is gone, and v's reach may have gone with it.
    if (!u_reached) return true;
    return v_reached && slack(du, dv) && minw_keeps;
  }
  if (!u_reached && !v_reached) return true;
  // One reached endpoint drops: the edge is gone, and the other's reach
  // may have gone with it.
  return u_reached && v_reached && slack(du, dv) && slack(dv, du) &&
         minw_keeps;
}

}  // namespace

std::size_t DependencyMemo::EntryBytes(const CsrGraph& graph) {
  return static_cast<std::size_t>(graph.num_vertices()) * sizeof(double);
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
    VertexId source, const std::vector<double>& deps) {
  // Copy outside the lock: other oracles keep reading meanwhile.
  auto entry = std::make_shared<Entry>(Entry{deps});
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
  const bool directed = new_graph.directed();
  const std::size_t n = new_graph.num_vertices();
  const std::size_t held = entries.size();
  if (new_graph.num_edges() == 0) entries.clear();  // see the class comment
  // Appended vertices have no pre-edit minw; the weighted test reads +inf
  // there, and a source reaching one on the post-edit graph fails the slack
  // test of the edge it arrives by.
  const std::size_t old_n =
      n - static_cast<std::size_t>(std::count_if(
              edits.begin(), edits.end(), [](const GraphEdit& edit) {
                return edit.kind == GraphEdit::Kind::kAddVertex;
              }));
  const auto minw_of = [&](VertexId v) {
    return v < old_n ? old_min_weight(v)
                     : std::numeric_limits<double>::infinity();
  };
  const double window =
      tie_epsilon + 4.0 * static_cast<double>(n) *
                        (tie_epsilon + std::numeric_limits<double>::epsilon());
  // carry_passes_ is cumulative: the bound allows twice the candidates past
  // it.
  const std::uint64_t limit =
      next->carry_passes_ + 2 * std::uint64_t{entries.size()};
  for (const GraphEdit& edit : edits) {
    if (entries.empty()) break;
    if (edit.kind == GraphEdit::Kind::kAddVertex) continue;
    if (next->carry_passes_ + 2 > limit) {
      entries.clear();
      break;
    }
    next->carry_passes_ += 2;
    if (!weighted) {
      const std::vector<std::uint32_t> to_u =
          BfsDistancesTo(new_graph, edit.u);
      const std::vector<std::uint32_t> to_v =
          BfsDistancesTo(new_graph, edit.v);
      std::erase_if(entries, [&](const auto& candidate) {
        return !UnweightedPassKeeps(to_u[candidate.first],
                                    to_v[candidate.first], directed);
      });
      continue;
    }
    MHBC_DCHECK(old_min_weight);
    const std::vector<double> to_u = DijkstraDistancesTo(new_graph, edit.u);
    const std::vector<double> to_v = DijkstraDistancesTo(new_graph, edit.v);
    // An insert needs w >= minw (it cannot become the new minimum); a
    // removal needs w > minw (at w == minw it may have *been* the minimum).
    // A directed arc only feeds v's minimum incoming weight.
    const double w = edit.weight;
    const bool insert = edit.kind == GraphEdit::Kind::kAddEdge;
    const auto leaves_minw = [w, insert](double minw) {
      return insert ? w >= minw : w > minw;
    };
    const bool minw_keeps = leaves_minw(minw_of(edit.v)) &&
                            (directed || leaves_minw(minw_of(edit.u)));
    std::erase_if(entries, [&](const auto& candidate) {
      return !WeightedPassKeeps(to_u[candidate.first], to_v[candidate.first],
                                w, minw_keeps, window, directed);
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
