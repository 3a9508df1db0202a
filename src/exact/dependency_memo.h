#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"

/// \file
/// DependencyMemo — the store of memoized dependency vectors behind
/// DependencyOracle, private to one oracle or shared by several.

namespace mhbc {

/// Point-in-time counters of one DependencyMemo. hits, inserts,
/// invalidated and carry_passes count from the memo's construction, and a
/// memo made by Carry starts from its predecessor's counts at the carry,
/// so along a chain of epochs they never decrease.
struct DependencyMemoStats {
  /// Memoized passes currently held.
  std::size_t entries = 0;
  /// Entry capacity (0 = memoization off).
  std::size_t capacity = 0;
  /// Lookups served from the memo instead of a pass, over all oracles.
  std::uint64_t hits = 0;
  /// Passes stored.
  std::uint64_t inserts = 0;
  /// Entries a graph edit dropped: those that failed Carry's survival
  /// test or were left untested by its work bound.
  std::uint64_t invalidated = 0;
  /// Reverse passes Carry ran to test entries (BFS on unweighted graphs,
  /// Dijkstra on weighted ones; two per edge edit while a candidate is
  /// left).
  std::uint64_t carry_passes = 0;
};

/// Memoized single-source passes of one graph: per source, the dependency
/// vector delta_{s.}(.) alone, on unweighted and weighted graphs alike. The
/// memo owns that entry format and its byte-sizing rule (EntryBytes,
/// CapacityFor).
///
/// Sharing. Every method is thread-safe (one std::mutex), so several
/// oracles — the sessions of one served graph (serve/catalog.h), each on
/// its own server worker — can read and fill one memo at once. Entries are
/// immutable and held by shared pointer: an oracle keeps the entry it last
/// returned alive, so a vector returned by DependencyOracle::Dependencies
/// stays valid until that oracle's next call, whatever another oracle
/// evicts meanwhile. All oracles on one memo must serve the same graph
/// with the same options; since a memoized vector is bit-identical to the
/// pass it replaces, which oracle filled an entry never shows in a report.
///
/// Epochs. A memo serves exactly one graph epoch. An edit batch does not
/// change a memo: Carry builds the next epoch's memo from this one's
/// survivors, shared by pointer, and leaves this one as it is, so oracles
/// still reading the pre-edit graph keep their entries and go on filling
/// them. The serving catalog carries once per mutate and publishes the new
/// memo with the new graph; a standalone oracle carries its own memo in
/// DependencyOracle::ApplyGraphDelta.
///
/// Edit survival. Passes failing their test for any edit of a batch are
/// dropped; survivors are extended with unreached sentinels for appended
/// vertices, as a fresh pass on the new graph would compute them. The test
/// runs on the post-edit graph, so the pre-edit graph may be the same
/// object edited in place (a weighted carry reads only its minimum incident
/// weights, through a MinWeightFn). Per edge edit {u,v,w}, one reverse pass
/// from each endpoint (BfsDistancesTo unweighted, DijkstraDistancesTo
/// weighted) gives d'(s,u) and d'(s,v) for every memoized source s. Work
/// bound: a carry runs at most two reverse passes per entry it starts with
/// (two per edit, so a one-edit batch is always tested in full), stops once
/// no candidate is left, and drops the candidates still untested when the
/// bound is spent, which costs only passes. Entries do not record their
/// pass kind, and a weighted graph edited down to no edges reads
/// weighted() false, so a carry onto an edgeless graph drops every entry;
/// passes there cost next to nothing.
///
/// Unweighted passes survive an edit iff d'(s,u) == d'(s,v), or, for the
/// directed arc u→v, u is unreached or d'(s,u) + 1 > d'(s,v). When every
/// edit passes, each edge the batch touched lies on no shortest path of the
/// post-edit graph, and adding back a removed one creates none, so both
/// graphs have the same distances, sigma, DAG and canonical order from s:
/// the vector is unchanged bit for bit. The argument also runs on the
/// pre-edit distances d, and either rule passing gives d == d', so both
/// keep the same entries.
///
/// Weighted passes survive an edit iff (a) both endpoints are unreached
/// (the edit happens outside the pass' component), or (b) both are
/// reached, the edge is *slack both ways* — d'(s,u) + w exceeds d'(s,v)
/// by more than the relative window W below and vice versa, so it lies on
/// no shortest path, creates none, and creates or breaks no tie — and w
/// leaves both endpoints' pre-edit minimum incident weight unchanged
/// (>= minw on insert, > minw on remove); one reached endpoint drops. The
/// directed arc u→v survives when u is unreached, or when v is reached,
/// the arc is slack one way and w leaves v's minimum *incoming* weight
/// unchanged. The minw gate is what makes the test sound for DeltaSpd's
/// canonical waves: wave membership — and with it the settle order, the
/// level slices, and every floating-point regrouping downstream — is a
/// function of distances and per-vertex minimum incident weights alone
/// (the bucket width drifts with the mean edge weight, but outputs are
/// invariant under it, see sp/delta_spd.h).
///
/// The window. The pass ran on the pre-edit graph, and its distances f
/// carry the wave-settle tie rule, which a reverse Dijkstra does not
/// reproduce bit for bit. The same rule on f with the window tie_epsilon
/// is sound (each passing edit changes no distance, no tie and no minw,
/// so f stays valid for the next edit), and W widens tie_epsilon by a
/// bound on how far f and d' can differ at the endpoints. When every edit
/// passes on d', the exact post-edit distances pass too, so by the
/// unweighted argument the exact pre-edit and post-edit distances D are
/// equal. Take a shortest path of k <= n - 1 edges to an endpoint, and u =
/// DBL_EPSILON / 2 (all to first order). A Dijkstra distance rounds once
/// per addition: d' lies in D [1 - k u, 1 + k u]. A DeltaSpd distance
/// rounds its sum and its tie comparison, and a tie may keep a candidate up
/// to tie_epsilon longer, per hop: f lies in D [1 - k u, 1 + k
/// (tie_epsilon + 2u)]. So each endpoint's |f - d'| is at most k
/// (tie_epsilon + 3u) D; both endpoints are within d'(s,u) + w of the
/// source, and the two rules round their own sums, so f and d' disagree on
/// the slack by at most n (2 tie_epsilon + 3 DBL_EPSILON) relative to
/// d'(s,u) + w. W = tie_epsilon + 4n (tie_epsilon + DBL_EPSILON) covers
/// that with room for the second-order terms: an edit slack by more than W
/// on d' is slack by more than tie_epsilon on f, so every weighted
/// survivor is one the test on f keeps, and an edit within W of a tie
/// drops its pass. At n = 1,024 and the default tie_epsilon, W is about
/// 4.1e-9.
class DependencyMemo {
 public:
  /// One memoized pass. Immutable once stored.
  struct Entry {
    std::vector<double> deps;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// minw(v) of the pre-edit graph, as DeltaSpd::min_incident_weight
  /// defines it: the smallest incoming weight, +infinity without one.
  using MinWeightFn = std::function<double(VertexId)>;

  /// A memo of up to `capacity` entries (0 = off).
  explicit DependencyMemo(std::size_t capacity = 0) : capacity_(capacity) {}

  DependencyMemo(const DependencyMemo&) = delete;
  DependencyMemo& operator=(const DependencyMemo&) = delete;

  /// Bytes one entry costs on `graph`: n doubles of dependencies.
  static std::size_t EntryBytes(const CsrGraph& graph);

  /// Entry capacity that fits `budget_bytes` on `graph`, capped at n (more
  /// entries than sources can never be used).
  static std::size_t CapacityFor(std::size_t budget_bytes,
                                 const CsrGraph& graph);

  /// minw read off `graph`, O(deg(v)) per vertex; `graph` must outlive
  /// the returned function.
  static MinWeightFn MinWeightsOf(const CsrGraph& graph);

  /// Sets the entry capacity; 0 turns memoization off and frees the store.
  /// The store is bulk-evicted when an insert finds it full.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// The memoized pass from `source`, or null.
  EntryPtr Find(VertexId source);

  /// Stores `deps`, the dependency vector of the pass from `source`, and
  /// returns the entry now held for `source` — another oracle's
  /// bit-identical entry when it got there first. The returned entry is
  /// valid even when the memo keeps nothing; callers check capacity() first
  /// to skip the copy when off.
  EntryPtr Insert(VertexId source, const std::vector<double>& deps);

  /// The memo of the next graph epoch: `edits` (a resolved
  /// DynamicGraph::Apply batch) turn this memo's graph into `new_graph`.
  /// The new memo holds the entries that survive every edit (see the class
  /// comment), shared by pointer and extended to new_graph's vertex count,
  /// and starts from this memo's capacity and counters, with the dropped
  /// entries counted as invalidated and the test's reverse passes as
  /// carry_passes. `tie_epsilon` is the canonical tie window the weighted
  /// passes ran with (SpdOptions::tie_epsilon), which the test widens as
  /// the class comment derives, and `old_min_weight` reads the pre-edit
  /// graph's minw; both are consulted on weighted graphs only, so an
  /// unweighted carry reads no graph but `new_graph`. This memo is left as
  /// it is.
  std::shared_ptr<DependencyMemo> Carry(const CsrGraph& new_graph,
                                        std::span<const GraphEdit> edits,
                                        double tie_epsilon,
                                        const MinWeightFn& old_min_weight)
      const;

  DependencyMemoStats Stats() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unordered_map<VertexId, EntryPtr> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t invalidated_ = 0;
  std::uint64_t carry_passes_ = 0;
};

}  // namespace mhbc
