#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.h"
#include "util/status.h"

/// \file
/// Mutable graph layered over an immutable CsrGraph base.
///
/// Every layer of the serving stack (SPD kernels, samplers, the engine)
/// consumes a frozen CsrGraph, and the MH estimators are exactly the family
/// that can cheaply re-estimate after small graph edits instead of
/// recomputing from scratch. DynamicGraph is the mutation substrate that
/// makes the streaming-update scenario possible without giving up the flat
/// CSR arrays the per-sample O(m) pass lives on: edits accumulate in an
/// O(delta)-sized *overlay* (per-vertex sorted add/remove lists plus a
/// count of appended vertices) on top of the base CSR, adjacency reads
/// compose base-minus-removed-plus-added on the fly, and Compact() folds
/// the overlay back into a fresh CSR once it crosses a size threshold —
/// the classic base+delta / log-structured design of dynamic graph stores.
///
/// The composed adjacency is served behind the same neighbor-range shape
/// CsrGraph exposes: neighbors(v) returns an ascending-ordered forward
/// range (begin/end iterators usable in range-for), so generic traversal
/// code templated on "a graph with neighbors(v)" runs on either type.
/// Iteration over vertex v costs O(degree_base(v) + overlay(v)).
///
/// The estimators themselves never read the overlay: the engine applies a
/// GraphDelta here, materializes the post-edit CSR via Csr() (which
/// compacts), and re-targets its kernels at the result — see
/// BetweennessEngine::ApplyDelta for the cache-invalidation story.

namespace mhbc {

/// One edit operation inside a GraphDelta.
struct GraphEdit {
  enum class Kind : std::uint8_t {
    /// Insert edge {u,v} (must not exist). On a directed base the edit is
    /// the single arc u→v; the reciprocal v→u stays independent.
    kAddEdge,
    /// Delete edge {u,v} (must exist); the arc u→v on a directed base.
    kRemoveEdge,
    kAddVertex,  ///< append one isolated vertex (u, v unused)
  };
  Kind kind = Kind::kAddEdge;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  /// kAddEdge: the weight to insert (1.0 on unweighted graphs). On the
  /// *resolved* edit list DynamicGraph::Apply returns, kRemoveEdge entries
  /// carry the weight the removed edge had — the invalidation test in
  /// DependencyOracle needs it without consulting the pre-edit graph.
  double weight = 1.0;
};

/// A batched edit script: an ordered list of edge/vertex edits applied
/// atomically (all ops validate against the sequentially-edited state, or
/// none apply). Build programmatically via the fluent adders or parse one
/// from the text format (ParseEditScript; spec in docs/formats.md).
class GraphDelta {
 public:
  /// Appends "insert undirected edge {u,v} with weight w". Weights other
  /// than 1.0 are only valid against weighted graphs.
  GraphDelta& AddEdge(VertexId u, VertexId v, double weight = 1.0);

  /// Appends "delete undirected edge {u,v}".
  GraphDelta& RemoveEdge(VertexId u, VertexId v);

  /// Appends `count` "append one isolated vertex" ops. New vertices get
  /// the next dense ids; later ops in the same delta may reference them.
  GraphDelta& AddVertices(std::uint32_t count = 1);

  bool empty() const { return edits_.empty(); }
  std::size_t size() const { return edits_.size(); }
  const std::vector<GraphEdit>& edits() const { return edits_; }
  void clear() { edits_.clear(); }

 private:
  std::vector<GraphEdit> edits_;
};

/// The most vertices one edit script may add, summed over its addvertex
/// lines. The parser holds one edit per added vertex, so the cap bounds
/// what one script (a file, or one `mutate` request) can make it
/// allocate: 2^20 vertices is 24 MiB of edits.
inline constexpr std::uint32_t kMaxVerticesAddedPerDelta = 1u << 20;

/// Parses the text edit-script format (docs/formats.md):
///   add <u> <v> [w]   |   remove <u> <v>   |   addvertex [count]
/// plus blank lines and '#' comments. Errors name the offending line; a
/// script whose addvertex counts sum past kMaxVerticesAddedPerDelta is
/// rejected at the line that crosses it.
StatusOr<GraphDelta> ParseEditScript(const std::string& path);

/// ParseEditScript over in-memory text; `where` labels error messages.
StatusOr<GraphDelta> ParseEditScriptText(const std::string& text,
                                         const std::string& where);

/// Writes `delta` in the ParseEditScript text format (round-trips).
Status WriteEditScript(const GraphDelta& delta, const std::string& path);

/// Tuning knobs for DynamicGraph.
struct DynamicGraphOptions {
  /// Apply() compacts automatically once the overlay holds more than
  /// max(min_compact_edits, compact_fraction * 2m_base) directed entries —
  /// past that point composed reads lose their O(deg + small-delta) shape
  /// and a rebuild is cheaper than carrying the overlay.
  std::size_t min_compact_edits = 4096;
  double compact_fraction = 0.25;
};

/// A CsrGraph base plus an edge-delta overlay. See file comment.
///
/// Like the rest of the graph layer this type is thread-compatible, not
/// thread-safe: concurrent readers are fine between mutations, but Apply /
/// Compact require exclusive access.
class DynamicGraph {
 public:
  /// Takes the starting graph by value (move in to avoid the copy). A
  /// *view* base (CsrGraph::WrapExternal) is accepted; its external arrays
  /// must stay alive until the first Compact() replaces them with owned
  /// storage.
  explicit DynamicGraph(CsrGraph base,
                        DynamicGraphOptions options = DynamicGraphOptions());

  /// The post-edit graph of `graph` under `delta`, in owned storage,
  /// leaving `graph` untouched: the edits are validated and applied on an
  /// overlay over a view of `graph`, which is then compacted. Fails like
  /// Apply; `resolved` as there. `delta` must be non-empty.
  static StatusOr<CsrGraph> ApplyToCopy(const CsrGraph& graph,
                                        const GraphDelta& delta,
                                        std::vector<GraphEdit>* resolved);

  /// Applies `delta` atomically: every op is validated against the
  /// sequentially-edited state first (duplicate inserts, missing removals,
  /// self-loops, out-of-range ids, non-1.0 weights on an unweighted graph
  /// all fail with InvalidArgument), and on any failure the graph is left
  /// untouched. On success the edit epoch advances by one and, when
  /// `resolved` is non-null, it receives the applied ops with kRemoveEdge
  /// weights filled in from the pre-edit state (see GraphEdit::weight).
  /// May auto-compact per DynamicGraphOptions.
  Status Apply(const GraphDelta& delta,
               std::vector<GraphEdit>* resolved = nullptr);

  /// Single-op conveniences over Apply.
  Status AddEdge(VertexId u, VertexId v, double weight = 1.0);
  Status RemoveEdge(VertexId u, VertexId v);
  /// Appends one isolated vertex and returns its id.
  VertexId AddVertex();

  /// Current vertex count (base + appended).
  VertexId num_vertices() const {
    return base_.num_vertices() + extra_vertices_;
  }

  /// Current edge count: undirected pairs, or arcs on a directed base.
  std::uint64_t num_edges() const { return num_edges_; }

  /// True when edges carry weights (fixed by the base graph).
  bool weighted() const { return base_.weighted(); }

  /// True when edits are directed arcs (fixed by the base graph). The
  /// overlay then stores only the out-side of each arc, and every
  /// adjacency read below is an *out*-adjacency read.
  bool directed() const { return base_.directed(); }

  /// Composed (out-)degree of v: base degree minus removed plus added.
  std::uint32_t degree(VertexId v) const;

  /// True if {u,v} (the arc u→v when directed) is an edge of the
  /// composed graph.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Weight of composed edge {u,v} (arc u→v when directed); requires the
  /// edge to exist. Unweighted graphs report 1.0.
  double EdgeWeight(VertexId u, VertexId v) const;

  /// One composed neighbor: id plus edge weight (1.0 when unweighted).
  struct Neighbor {
    VertexId id;
    double weight;
  };

  /// Forward iterator merging the base CSR slice (minus removed edges)
  /// with the overlay's added list, in ascending neighbor id — the same
  /// order a compacted CSR would serve.
  class NeighborIterator {
   public:
    using value_type = Neighbor;
    using difference_type = std::ptrdiff_t;

    Neighbor operator*() const;
    NeighborIterator& operator++();
    bool operator!=(const NeighborIterator& other) const;
    bool operator==(const NeighborIterator& other) const {
      return !(*this != other);
    }

   private:
    friend class DynamicGraph;
    void SkipRemoved();

    std::span<const VertexId> base_ids_;
    std::span<const double> base_weights_;  // empty when unweighted
    std::span<const VertexId> removed_;
    std::span<const Neighbor> added_;
    std::size_t base_pos_ = 0;
    std::size_t removed_pos_ = 0;
    std::size_t added_pos_ = 0;
  };

  /// Range-for compatible neighbor range (the CsrGraph::neighbors shape,
  /// with weights riding along). O(deg_base + overlay(v)) to traverse.
  class NeighborRange {
   public:
    NeighborIterator begin() const { return begin_; }
    NeighborIterator end() const { return end_; }

   private:
    friend class DynamicGraph;
    NeighborIterator begin_;
    NeighborIterator end_;
  };

  /// Composed (out-)neighbors of v in ascending id order.
  NeighborRange neighbors(VertexId v) const;

  /// Folds the overlay into a fresh owned CSR base and clears it. O(n+m).
  /// No-op when the overlay is empty and the base already reflects every
  /// edit.
  void Compact();

  /// The composed graph as a flat CSR (compacts first when edits are
  /// pending). The returned reference stays valid across later edits —
  /// it is the internal base object — but its *contents* change on the
  /// next Compact; callers holding raw array spans must re-fetch them
  /// after every mutation.
  const CsrGraph& Csr();

  /// The base CSR as of the last compaction (read-only; may lag the
  /// composed graph by the overlay).
  const CsrGraph& base() const { return base_; }

  /// Directed overlay entries currently pending (adds + removes, both
  /// directions counted — the quantity the compaction threshold tests).
  std::size_t overlay_edits() const { return overlay_edits_; }

  /// Number of successful non-empty Apply batches so far. Epoch k+1's
  /// composed graph is the input for epoch-tagged cache invalidation
  /// upstream (DependencyOracle, BetweennessEngine).
  std::uint64_t epoch() const { return epoch_; }

  const DynamicGraphOptions& options() const { return options_; }

 private:
  /// Per-vertex overlay: ids removed from the base slice and neighbors
  /// added on top, both sorted ascending by id.
  struct VertexOverlay {
    std::vector<VertexId> removed;
    std::vector<Neighbor> added;
  };

  const VertexOverlay* overlay_for(VertexId v) const;
  /// True if {u,v} is an edge of the composed graph; u's overlay entry is
  /// passed in so staged (pre-commit) lookups can reuse it.
  static bool ComposedHasEdge(const CsrGraph& base, const VertexOverlay* ou,
                              VertexId u, VertexId v);
  /// Applies one validated directed half-edge to `side`.
  static void AddDirected(VertexOverlay* side, VertexId to, double weight);
  static bool RemoveDirected(const CsrGraph& base, VertexOverlay* side,
                             VertexId from, VertexId to);

  CsrGraph base_;
  DynamicGraphOptions options_;
  std::unordered_map<VertexId, VertexOverlay> overlay_;
  std::uint32_t extra_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  std::size_t overlay_edits_ = 0;
  std::uint64_t epoch_ = 0;
  bool dirty_ = false;
};

/// Generates a deterministic random edit script of `num_edits` ops that is
/// valid against `graph`: a mix of edge removals (uniform over existing
/// edges), edge insertions (uniform over non-edges), and occasional
/// vertex-append-plus-attachment, all internally consistent in sequence.
/// Shared by the equivalence test harness and bench_e21 so the two sweep
/// the same edit distribution. Graphs with fewer than 2 vertices get pure
/// vertex appends.
GraphDelta MakeRandomEditScript(const CsrGraph& graph, std::size_t num_edits,
                                std::uint64_t seed);

}  // namespace mhbc
