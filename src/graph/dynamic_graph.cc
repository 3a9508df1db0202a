#include "graph/dynamic_graph.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "util/rng.h"

namespace mhbc {

// -------------------------------------------------------------- GraphDelta

GraphDelta& GraphDelta::AddEdge(VertexId u, VertexId v, double weight) {
  edits_.push_back(GraphEdit{GraphEdit::Kind::kAddEdge, u, v, weight});
  return *this;
}

GraphDelta& GraphDelta::RemoveEdge(VertexId u, VertexId v) {
  edits_.push_back(GraphEdit{GraphEdit::Kind::kRemoveEdge, u, v, 1.0});
  return *this;
}

GraphDelta& GraphDelta::AddVertices(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    edits_.push_back(GraphEdit{GraphEdit::Kind::kAddVertex, kInvalidVertex,
                               kInvalidVertex, 1.0});
  }
  return *this;
}

// -------------------------------------------------------- edit-script text

namespace {

/// Strips a '#' comment and surrounding whitespace.
std::string CleanLine(const std::string& raw) {
  std::string line = raw;
  const std::string::size_type hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const std::string::size_type first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const std::string::size_type last = line.find_last_not_of(" \t\r\n");
  return line.substr(first, last - first + 1);
}

/// Parses one non-negative vertex id token; false on malformed input.
bool ParseVertex(std::istringstream& tokens, VertexId* out) {
  long long value = 0;
  if (!(tokens >> value)) return false;
  if (value < 0 || value >= static_cast<long long>(kInvalidVertex)) {
    return false;
  }
  *out = static_cast<VertexId>(value);
  return true;
}

}  // namespace

StatusOr<GraphDelta> ParseEditScriptText(const std::string& text,
                                         const std::string& where) {
  GraphDelta delta;
  std::uint32_t added_vertices = 0;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = CleanLine(raw);
    if (line.empty()) continue;
    const auto fail = [&](const std::string& message) {
      return Status::InvalidArgument(where + ":" + std::to_string(line_no) +
                                     ": " + message);
    };
    std::istringstream tokens(line);
    std::string op;
    tokens >> op;
    std::string trailing;
    if (op == "add") {
      VertexId u, v;
      if (!ParseVertex(tokens, &u) || !ParseVertex(tokens, &v)) {
        return fail("expected: add <u> <v> [w]");
      }
      double weight = 1.0;
      if (tokens >> weight) {
        if (!(weight > 0.0)) return fail("edge weight must be positive");
      } else {
        tokens.clear();  // the weight is optional
      }
      if (tokens >> trailing) return fail("trailing input '" + trailing + "'");
      delta.AddEdge(u, v, weight);
    } else if (op == "remove") {
      VertexId u, v;
      if (!ParseVertex(tokens, &u) || !ParseVertex(tokens, &v)) {
        return fail("expected: remove <u> <v>");
      }
      if (tokens >> trailing) return fail("trailing input '" + trailing + "'");
      delta.RemoveEdge(u, v);
    } else if (op == "addvertex") {
      // The count is optional. A count too long for the integer type is
      // out of range, not absent.
      std::uint64_t count = 1;
      std::string count_text;
      if (tokens >> count_text) {
        const char* end = count_text.data() + count_text.size();
        const auto [stop, error] =
            std::from_chars(count_text.data(), end, count);
        if (error != std::errc() || stop != end || count < 1) {
          return fail("addvertex count out of range");
        }
      }
      if (count > kMaxVerticesAddedPerDelta - added_vertices) {
        return fail("addvertex: the script adds more than " +
                    std::to_string(kMaxVerticesAddedPerDelta) +
                    " vertices (the per-delta cap)");
      }
      if (tokens >> trailing) return fail("trailing input '" + trailing + "'");
      added_vertices += static_cast<std::uint32_t>(count);
      delta.AddVertices(static_cast<std::uint32_t>(count));
    } else {
      return fail("unknown op '" + op +
                  "' (expected add / remove / addvertex)");
    }
  }
  return delta;
}

StatusOr<GraphDelta> ParseEditScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open edit script '" + path +
                           "' for reading");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseEditScriptText(text.str(), path);
}

Status WriteEditScript(const GraphDelta& delta, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open edit script '" + path +
                           "' for writing");
  }
  // Full double precision: weights must survive the round trip exactly
  // (Apply's re-add cancel test compares weights bit-for-bit).
  out.precision(17);
  for (const GraphEdit& edit : delta.edits()) {
    switch (edit.kind) {
      case GraphEdit::Kind::kAddEdge:
        out << "add " << edit.u << " " << edit.v;
        if (edit.weight != 1.0) out << " " << edit.weight;
        out << "\n";
        break;
      case GraphEdit::Kind::kRemoveEdge:
        out << "remove " << edit.u << " " << edit.v << "\n";
        break;
      case GraphEdit::Kind::kAddVertex:
        out << "addvertex\n";
        break;
    }
  }
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

// ------------------------------------------------------------ DynamicGraph

DynamicGraph::DynamicGraph(CsrGraph base, DynamicGraphOptions options)
    : base_(std::move(base)),
      options_(options),
      num_edges_(base_.num_edges()) {}

const DynamicGraph::VertexOverlay* DynamicGraph::overlay_for(
    VertexId v) const {
  const auto it = overlay_.find(v);
  return it == overlay_.end() ? nullptr : &it->second;
}

bool DynamicGraph::ComposedHasEdge(const CsrGraph& base,
                                   const VertexOverlay* ou, VertexId u,
                                   VertexId v) {
  if (ou != nullptr) {
    const auto ait = std::lower_bound(
        ou->added.begin(), ou->added.end(), v,
        [](const Neighbor& n, VertexId id) { return n.id < id; });
    if (ait != ou->added.end() && ait->id == v) return true;
    if (std::binary_search(ou->removed.begin(), ou->removed.end(), v)) {
      return false;
    }
  }
  if (u < base.num_vertices() && v < base.num_vertices()) {
    return base.HasEdge(u, v);
  }
  return false;
}

namespace {

/// Inserts `value` into a sorted vector, keeping it sorted. Requires the
/// value to be absent.
template <typename T, typename Less>
void SortedInsert(std::vector<T>* vec, T value, Less less) {
  const auto it = std::lower_bound(vec->begin(), vec->end(), value, less);
  vec->insert(it, std::move(value));
}

}  // namespace

void DynamicGraph::AddDirected(VertexOverlay* side, VertexId to,
                               double weight) {
  SortedInsert(&side->added, Neighbor{to, weight},
               [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
}

bool DynamicGraph::RemoveDirected(const CsrGraph& base, VertexOverlay* side,
                                  VertexId from, VertexId to) {
  // An overlay-added half-edge cancels out; a base half-edge is masked.
  const auto ait = std::lower_bound(
      side->added.begin(), side->added.end(), to,
      [](const Neighbor& n, VertexId id) { return n.id < id; });
  if (ait != side->added.end() && ait->id == to) {
    side->added.erase(ait);
    // When the base also holds {from,to} (an edge removed and re-added
    // with a different weight), the mask entry must stay in place.
    return true;
  }
  MHBC_DCHECK(from < base.num_vertices() && to < base.num_vertices());
  SortedInsert(&side->removed, to, std::less<VertexId>());
  return false;
}

Status DynamicGraph::Apply(const GraphDelta& delta,
                           std::vector<GraphEdit>* resolved) {
  if (delta.empty()) {
    if (resolved != nullptr) resolved->clear();
    return Status::Ok();
  }
  // Stage the whole batch on a clone of the overlay state so a failing op
  // leaves the graph untouched (the clone is O(overlay), which the
  // compaction threshold keeps small).
  auto staged = overlay_;
  std::uint32_t staged_extra = extra_vertices_;
  std::uint64_t staged_edges = num_edges_;
  std::size_t staged_overlay = overlay_edits_;
  std::vector<GraphEdit> staged_resolved;
  staged_resolved.reserve(delta.size());

  const auto ids = [](VertexId u, VertexId v) {
    // Built by append: `const char* + std::string&&` trips a GCC 12
    // -Wrestrict false positive in the inlined libstdc++ concatenation.
    std::string out = "{";
    out += std::to_string(u);
    out += ',';
    out += std::to_string(v);
    out += '}';
    return out;
  };
  for (const GraphEdit& edit : delta.edits()) {
    const VertexId n = base_.num_vertices() + staged_extra;
    switch (edit.kind) {
      case GraphEdit::Kind::kAddVertex: {
        if (n == kInvalidVertex) {
          return Status::InvalidArgument("vertex id space exhausted");
        }
        ++staged_extra;
        staged_resolved.push_back(edit);
        break;
      }
      case GraphEdit::Kind::kAddEdge: {
        if (edit.u >= n || edit.v >= n) {
          return Status::InvalidArgument("add " + ids(edit.u, edit.v) +
                                         ": vertex out of range (n=" +
                                         std::to_string(n) + ")");
        }
        if (edit.u == edit.v) {
          return Status::InvalidArgument(
              "add " + ids(edit.u, edit.v) +
              ": self-loops are not allowed (paper graph model)");
        }
        if (!(edit.weight > 0.0)) {
          return Status::InvalidArgument("add " + ids(edit.u, edit.v) +
                                         ": edge weight must be positive");
        }
        if (!weighted() && edit.weight != 1.0) {
          return Status::InvalidArgument(
              "add " + ids(edit.u, edit.v) +
              ": cannot add a weighted edge to an unweighted graph");
        }
        const auto it = staged.find(edit.u);
        const VertexOverlay* ou = it == staged.end() ? nullptr : &it->second;
        if (ComposedHasEdge(base_, ou, edit.u, edit.v)) {
          return Status::InvalidArgument("add " + ids(edit.u, edit.v) +
                                         ": edge already exists");
        }
        // Re-adding a previously-removed base edge at its base weight
        // cancels the mask instead of stacking an added entry.
        auto cancel_mask = [&](VertexId from, VertexId to) {
          VertexOverlay& side = staged[from];
          const auto rit = std::lower_bound(side.removed.begin(),
                                            side.removed.end(), to);
          if (rit != side.removed.end() && *rit == to &&
              base_.EdgeWeight(from, to) == edit.weight) {
            side.removed.erase(rit);
            return true;
          }
          return false;
        };
        const bool masked =
            edit.u < base_.num_vertices() && edit.v < base_.num_vertices() &&
            base_.HasEdge(edit.u, edit.v);
        if (directed()) {
          // One arc, one overlay side: the reciprocal arc v→u is an
          // independent edge and its overlay state stays untouched.
          if (masked && cancel_mask(edit.u, edit.v)) {
            staged_overlay -= 1;
          } else {
            AddDirected(&staged[edit.u], edit.v, edit.weight);
            staged_overlay += 1;
          }
        } else if (masked && cancel_mask(edit.u, edit.v)) {
          const bool other = cancel_mask(edit.v, edit.u);
          MHBC_DCHECK(other);
          staged_overlay -= 2;
        } else {
          AddDirected(&staged[edit.u], edit.v, edit.weight);
          AddDirected(&staged[edit.v], edit.u, edit.weight);
          staged_overlay += 2;
        }
        ++staged_edges;
        staged_resolved.push_back(edit);
        break;
      }
      case GraphEdit::Kind::kRemoveEdge: {
        if (edit.u >= n || edit.v >= n) {
          return Status::InvalidArgument("remove " + ids(edit.u, edit.v) +
                                         ": vertex out of range (n=" +
                                         std::to_string(n) + ")");
        }
        if (edit.u == edit.v) {
          return Status::InvalidArgument("remove " + ids(edit.u, edit.v) +
                                         ": self-loops never exist");
        }
        const auto it = staged.find(edit.u);
        const VertexOverlay* ou = it == staged.end() ? nullptr : &it->second;
        if (!ComposedHasEdge(base_, ou, edit.u, edit.v)) {
          return Status::InvalidArgument("remove " + ids(edit.u, edit.v) +
                                         ": no such edge");
        }
        GraphEdit done = edit;
        // Resolve the weight the edge had before it disappears: the
        // invalidation test upstream needs it graph-free.
        const auto ait =
            ou == nullptr
                ? nullptr
                : [&]() -> const Neighbor* {
                    const auto pos = std::lower_bound(
                        ou->added.begin(), ou->added.end(), edit.v,
                        [](const Neighbor& a, VertexId id) {
                          return a.id < id;
                        });
                    return pos != ou->added.end() && pos->id == edit.v
                               ? &*pos
                               : nullptr;
                  }();
        done.weight =
            ait != nullptr ? ait->weight : base_.EdgeWeight(edit.u, edit.v);
        if (directed()) {
          const bool cancelled =
              RemoveDirected(base_, &staged[edit.u], edit.u, edit.v);
          staged_overlay += cancelled ? -1 : 1;
        } else {
          const bool cancelled_u =
              RemoveDirected(base_, &staged[edit.u], edit.u, edit.v);
          const bool cancelled_v =
              RemoveDirected(base_, &staged[edit.v], edit.v, edit.u);
          MHBC_DCHECK(cancelled_u == cancelled_v);
          staged_overlay += cancelled_u ? -2 : 2;
        }
        --staged_edges;
        staged_resolved.push_back(done);
        break;
      }
    }
  }

  overlay_ = std::move(staged);
  extra_vertices_ = staged_extra;
  num_edges_ = staged_edges;
  overlay_edits_ = staged_overlay;
  ++epoch_;
  dirty_ = true;
  if (resolved != nullptr) *resolved = std::move(staged_resolved);

  const std::size_t threshold = std::max(
      options_.min_compact_edits,
      static_cast<std::size_t>(options_.compact_fraction *
                               static_cast<double>(base_.raw_adjacency().size())));
  if (overlay_edits_ > threshold) Compact();
  return Status::Ok();
}

Status DynamicGraph::AddEdge(VertexId u, VertexId v, double weight) {
  GraphDelta delta;
  delta.AddEdge(u, v, weight);
  return Apply(delta);
}

Status DynamicGraph::RemoveEdge(VertexId u, VertexId v) {
  GraphDelta delta;
  delta.RemoveEdge(u, v);
  return Apply(delta);
}

VertexId DynamicGraph::AddVertex() {
  const VertexId id = num_vertices();
  GraphDelta delta;
  delta.AddVertices(1);
  const Status status = Apply(delta);
  MHBC_DCHECK(status.ok());
  return id;
}

std::uint32_t DynamicGraph::degree(VertexId v) const {
  MHBC_DCHECK(v < num_vertices());
  std::uint32_t deg = v < base_.num_vertices() ? base_.degree(v) : 0;
  if (const VertexOverlay* ov = overlay_for(v)) {
    deg -= static_cast<std::uint32_t>(ov->removed.size());
    deg += static_cast<std::uint32_t>(ov->added.size());
  }
  return deg;
}

bool DynamicGraph::HasEdge(VertexId u, VertexId v) const {
  MHBC_DCHECK(u < num_vertices());
  MHBC_DCHECK(v < num_vertices());
  return ComposedHasEdge(base_, overlay_for(u), u, v);
}

double DynamicGraph::EdgeWeight(VertexId u, VertexId v) const {
  MHBC_DCHECK(HasEdge(u, v));
  if (const VertexOverlay* ov = overlay_for(u)) {
    const auto ait = std::lower_bound(
        ov->added.begin(), ov->added.end(), v,
        [](const Neighbor& n, VertexId id) { return n.id < id; });
    if (ait != ov->added.end() && ait->id == v) return ait->weight;
  }
  return base_.EdgeWeight(u, v);
}

// -------------------------------------------------------- neighbor merging

DynamicGraph::Neighbor DynamicGraph::NeighborIterator::operator*() const {
  const bool has_base = base_pos_ < base_ids_.size();
  const bool has_added = added_pos_ < added_.size();
  MHBC_DCHECK(has_base || has_added);
  if (has_added &&
      (!has_base || added_[added_pos_].id < base_ids_[base_pos_])) {
    return added_[added_pos_];
  }
  return Neighbor{base_ids_[base_pos_],
                  base_weights_.empty() ? 1.0 : base_weights_[base_pos_]};
}

DynamicGraph::NeighborIterator& DynamicGraph::NeighborIterator::operator++() {
  const bool has_base = base_pos_ < base_ids_.size();
  const bool has_added = added_pos_ < added_.size();
  if (has_added &&
      (!has_base || added_[added_pos_].id < base_ids_[base_pos_])) {
    ++added_pos_;
  } else {
    ++base_pos_;
    SkipRemoved();
  }
  return *this;
}

bool DynamicGraph::NeighborIterator::operator!=(
    const NeighborIterator& other) const {
  return base_pos_ != other.base_pos_ || added_pos_ != other.added_pos_;
}

void DynamicGraph::NeighborIterator::SkipRemoved() {
  while (base_pos_ < base_ids_.size()) {
    const VertexId id = base_ids_[base_pos_];
    while (removed_pos_ < removed_.size() && removed_[removed_pos_] < id) {
      ++removed_pos_;
    }
    if (removed_pos_ < removed_.size() && removed_[removed_pos_] == id) {
      ++base_pos_;
      continue;
    }
    break;
  }
}

DynamicGraph::NeighborRange DynamicGraph::neighbors(VertexId v) const {
  MHBC_DCHECK(v < num_vertices());
  NeighborIterator it;
  if (v < base_.num_vertices()) {
    it.base_ids_ = base_.neighbors(v);
    it.base_weights_ = base_.weights(v);
  }
  if (const VertexOverlay* ov = overlay_for(v)) {
    it.removed_ = ov->removed;
    it.added_ = ov->added;
  }
  NeighborRange range;
  range.end_ = it;
  range.end_.base_pos_ = it.base_ids_.size();
  range.end_.removed_pos_ = it.removed_.size();
  range.end_.added_pos_ = it.added_.size();
  it.SkipRemoved();
  range.begin_ = it;
  return range;
}

// --------------------------------------------------------------- compaction

void DynamicGraph::Compact() {
  if (!dirty_) return;
  const VertexId n = num_vertices();
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + degree(v);
  }
  const std::size_t adjacency_len = static_cast<std::size_t>(offsets[n]);
  MHBC_DCHECK(adjacency_len == (directed() ? num_edges_ : 2 * num_edges_));
  std::vector<VertexId> adjacency(adjacency_len);
  std::vector<double> weight_array;
  if (weighted()) weight_array.resize(adjacency_len);
  for (VertexId v = 0; v < n; ++v) {
    std::size_t pos = static_cast<std::size_t>(offsets[v]);
    for (const Neighbor nb : neighbors(v)) {
      adjacency[pos] = nb.id;
      if (weighted()) weight_array[pos] = nb.weight;
      ++pos;
    }
    MHBC_DCHECK(pos == offsets[v + 1]);
  }
  std::string name = base_.name();
  base_ = CsrGraph::AdoptVerbatim(std::move(offsets), std::move(adjacency),
                                  std::move(weight_array), std::move(name),
                                  directed());
  overlay_.clear();
  extra_vertices_ = 0;
  overlay_edits_ = 0;
  dirty_ = false;
}

const CsrGraph& DynamicGraph::Csr() {
  if (dirty_) Compact();
  return base_;
}

StatusOr<CsrGraph> DynamicGraph::ApplyToCopy(const CsrGraph& graph,
                                             const GraphDelta& delta,
                                             std::vector<GraphEdit>* resolved) {
  MHBC_DCHECK(!delta.empty());
  DynamicGraph dynamic(CsrGraph::WrapExternal(
      graph.raw_offsets(), graph.raw_adjacency(), graph.raw_weights(),
      graph.name(), graph.directed()));
  MHBC_RETURN_IF_ERROR(dynamic.Apply(delta, resolved));
  dynamic.Compact();  // a non-empty batch leaves owned storage, not the view
  MHBC_DCHECK(!dynamic.base_.is_external_view());
  return std::move(dynamic.base_);
}

// -------------------------------------------------------- random scripts

GraphDelta MakeRandomEditScript(const CsrGraph& graph, std::size_t num_edits,
                                std::uint64_t seed) {
  Rng rng(seed);
  GraphDelta delta;
  // Live model of the composed graph as the script grows, so every op is
  // valid in sequence.
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::unordered_set<std::uint64_t> edge_set;
  // Directed scripts key on the *ordered* pair: the reciprocal arc is a
  // distinct edge, so inserting v→u while u→v exists is valid.
  const bool directed = graph.directed();
  const auto key = [directed](VertexId u, VertexId v) {
    if (!directed && u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  for (const CsrGraph::Edge& edge : graph.CollectEdges()) {
    edges.emplace_back(edge.u, edge.v);
    edge_set.insert(key(edge.u, edge.v));
  }
  VertexId n = graph.num_vertices();
  const bool weighted = graph.weighted();
  const auto random_weight = [&] {
    return weighted ? 0.5 + 1.5 * rng.NextDouble() : 1.0;
  };

  while (delta.size() < num_edits) {
    const double roll = rng.NextDouble();
    if (n < 2 || roll < 0.10) {
      // Append a vertex; attach it so it participates in shortest paths.
      delta.AddVertices(1);
      const VertexId fresh = n++;
      if (fresh > 0 && delta.size() < num_edits) {
        const VertexId anchor = rng.NextVertex(fresh);
        delta.AddEdge(anchor, fresh, random_weight());
        edges.emplace_back(anchor, fresh);
        edge_set.insert(key(anchor, fresh));
      }
    } else if (roll < 0.55 && !edges.empty()) {
      // Remove a uniform existing edge.
      const std::size_t idx =
          static_cast<std::size_t>(rng.NextBounded(edges.size()));
      const auto [u, v] = edges[idx];
      edges[idx] = edges.back();
      edges.pop_back();
      edge_set.erase(key(u, v));
      delta.RemoveEdge(u, v);
    } else {
      // Insert a uniform non-edge (rejection sampling; dense graphs fall
      // back to a vertex append so the script always reaches its length).
      bool inserted = false;
      for (int attempt = 0; attempt < 64 && !inserted; ++attempt) {
        const VertexId u = rng.NextVertex(n);
        const VertexId v = rng.NextVertex(n);
        if (u == v || edge_set.count(key(u, v)) != 0) continue;
        delta.AddEdge(u, v, random_weight());
        edges.emplace_back(u, v);
        edge_set.insert(key(u, v));
        inserted = true;
      }
      if (!inserted) {
        delta.AddVertices(1);
        ++n;
      }
    }
  }
  return delta;
}

}  // namespace mhbc
