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
#include "sp/spd.h"

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
  /// Reverse BFS passes Carry ran to test unweighted entries (two per
  /// edge edit while a candidate is left).
  std::uint64_t carry_passes = 0;
};

/// Memoized single-source passes of one graph: per source, the dependency
/// vector delta_{s.}(.), plus the pass' distances on weighted graphs for
/// the edit-survival test. The memo owns that entry format and its
/// byte-sizing rule (EntryBytes, CapacityFor).
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
/// vertices, as a fresh pass on the new graph would compute them.
///
/// Unweighted passes are tested on the post-edit graph alone, so the
/// pre-edit graph may be the same object edited in place. Per edge edit
/// {u,v}, one reverse BFS from each endpoint (BfsDistancesTo) gives d'(s,u)
/// and d'(s,v) for every memoized source s; the pass from s survives iff
/// d'(s,u) == d'(s,v), or, for the directed arc u→v, u is unreached or
/// d'(s,u) + 1 > d'(s,v). When every edit passes, each edge the batch
/// touched lies on no shortest path of the post-edit graph, and adding back
/// a removed one creates none, so both graphs have the same distances,
/// sigma, DAG and canonical order from s: the vector is unchanged bit for
/// bit. The argument also runs on the pre-edit distances d, and either rule
/// passing gives d == d', so both keep the same entries. Work bound: a
/// carry runs at most two reverse passes per entry it starts with (two per
/// edit, so a one-edit batch is always tested in full), stops once no
/// candidate is left, and drops the candidates still untested when the
/// bound is spent, which costs only passes.
///
/// Weighted passes keep their distances, which carry the wave-settle tie
/// rule that a reverse Dijkstra does not reproduce bit for bit. They
/// survive an edit {u,v,w} iff (a) both endpoints were unreached (the edit
/// happens outside the pass' component), or (b) both were reached, the
/// edge is *slack both ways* — wdist(s,u) + w exceeds wdist(s,v) by more
/// than the canonical tie epsilon and vice versa, so it lies on no
/// shortest path, creates none, and creates or breaks no tie — and w
/// leaves both endpoints' minimum incident weight unchanged (>= minw on
/// insert, > minw on remove). The minw gate is what makes the test sound
/// for DeltaSpd's canonical waves: wave membership — and with it the
/// settle order, the level slices, and every floating-point regrouping
/// downstream — is a function of distances and per-vertex minimum incident
/// weights alone (the bucket width drifts with the mean edge weight, but
/// outputs are invariant under it, see sp/delta_spd.h).
class DependencyMemo {
 public:
  /// One memoized pass. Immutable once stored.
  struct Entry {
    std::vector<double> deps;
    std::vector<double> wdists;  ///< weighted passes only
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// minw(v) of the pre-edit graph, as DeltaSpd::min_incident_weight
  /// defines it: the smallest incoming weight, +infinity without one.
  using MinWeightFn = std::function<double(VertexId)>;

  /// A memo of up to `capacity` entries (0 = off).
  explicit DependencyMemo(std::size_t capacity = 0) : capacity_(capacity) {}

  DependencyMemo(const DependencyMemo&) = delete;
  DependencyMemo& operator=(const DependencyMemo&) = delete;

  /// Bytes one entry costs on `graph`: n doubles of dependencies, plus n
  /// double weighted distances on a weighted graph.
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

  /// Stores the pass from `source` that produced `deps` on `dag` (weighted
  /// passes also keep dag.wdist) and returns the entry
  /// now held for `source` — another oracle's bit-identical entry when it
  /// got there first. The returned entry is valid even when the memo keeps
  /// nothing; callers check capacity() first to skip the copy when off.
  EntryPtr Insert(VertexId source, const std::vector<double>& deps,
                  const ShortestPathDag& dag, bool weighted);

  /// The memo of the next graph epoch: `edits` (a resolved
  /// DynamicGraph::Apply batch) turn this memo's graph into `new_graph`.
  /// The new memo holds the entries that survive every edit (see the class
  /// comment), shared by pointer and extended to new_graph's vertex count,
  /// and starts from this memo's capacity and counters, with the dropped
  /// entries counted as invalidated and the reverse passes of the
  /// unweighted test as carry_passes. `tie_epsilon` is the canonical tie
  /// window the weighted passes ran with (SpdOptions::tie_epsilon), and
  /// `old_min_weight` reads the pre-edit graph's minw; both are consulted
  /// on weighted graphs only, so an unweighted carry reads no graph but
  /// `new_graph`. This memo is left as it is.
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
