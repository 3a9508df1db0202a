#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "sp/delta_spd.h"
#include "sp/spd.h"
#include "util/thread_pool.h"

/// \file
/// DependencyMemo — the store of memoized dependency vectors behind
/// DependencyOracle, private to one oracle or shared by several.

namespace mhbc {

/// Point-in-time counters of one DependencyMemo.
struct DependencyMemoStats {
  /// Memoized passes currently held.
  std::size_t entries = 0;
  /// Entry capacity (0 = memoization off).
  std::size_t capacity = 0;
  /// Lookups served from the memo instead of a pass, over all oracles.
  std::uint64_t hits = 0;
  /// Passes stored (MergeFrom copies are not counted).
  std::uint64_t inserts = 0;
  /// Entries dropped because the graph changed: by ApplyGraphDelta's
  /// survival test, or wholesale when an oracle arrived at a newer epoch
  /// the memo was never carried to.
  std::uint64_t invalidated = 0;
};

/// Memoized single-source passes: per source, the dependency vector
/// delta_{s.}(.) plus the pass' distances — hop distances on unweighted
/// graphs, weighted distances on weighted ones — kept for the edit-survival
/// test. The memo owns that entry format and its byte-sizing rule
/// (EntryBytes, CapacityFor).
///
/// Sharing. Every method is thread-safe (one Mutex), so several oracles —
/// the sessions of one served graph (serve/catalog.h), each on its own
/// server worker — can read and fill one memo at once. Entries are
/// immutable and held by shared pointer: an oracle keeps the entry it last
/// returned alive, so a vector returned by DependencyOracle::Dependencies
/// stays valid until that oracle's next call, whatever another oracle
/// evicts meanwhile. All oracles on one memo must serve the same graph
/// sequence with the same options; since a memoized vector is
/// bit-identical to the pass it replaces, which oracle filled an entry
/// never shows in a report.
///
/// Epochs. The memo holds the passes of one graph epoch, the newest any of
/// its oracles has reached. An oracle passes its own epoch to every call:
/// at the memo's epoch it reads and fills the memo; behind it, it is
/// neither served nor stored (it runs its passes alone); ahead of it, the
/// memo drops its stale entries and moves to that epoch. ApplyGraphDelta
/// filters the edits of one epoch once: the first oracle to apply them
/// drops the entries they touch, and the others, applying the same edits,
/// find the memo already at the new epoch.
///
/// Edit survival. For unweighted graphs an edit {u,v} provably leaves a
/// pass' whole shortest-path DAG — distances, sigma, canonical order, and
/// therefore the dependency vector bit-for-bit — unchanged iff
/// dist(s,u) == dist(s,v) (an intra-level or fully-unreached edge lies on
/// no shortest path, and inserting one creates none). Weighted passes
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
/// outputs are invariant under it, see sp/delta_spd.h). Passes failing
/// their test for any edit in the batch are dropped; survivors are
/// extended with unreached sentinels for appended vertices, exactly as a
/// fresh pass on the new graph would compute them.
class DependencyMemo {
 public:
  /// One memoized pass. Immutable once stored.
  struct Entry {
    std::vector<double> deps;
    std::vector<std::uint32_t> hops;  ///< unweighted passes
    std::vector<double> wdists;       ///< weighted passes
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// A memo of up to `capacity` entries (0 = off).
  explicit DependencyMemo(std::size_t capacity = 0) : capacity_(capacity) {}

  DependencyMemo(const DependencyMemo&) = delete;
  DependencyMemo& operator=(const DependencyMemo&) = delete;

  /// Bytes one entry costs on `graph`: n doubles of dependencies plus the
  /// pass distances kept for edit survival (n u32 hop distances
  /// unweighted, n double weighted distances weighted).
  static std::size_t EntryBytes(const CsrGraph& graph);

  /// Entry capacity that fits `budget_bytes` on `graph`, capped at n (more
  /// entries than sources can never be used).
  static std::size_t CapacityFor(std::size_t budget_bytes,
                                 const CsrGraph& graph);

  /// Sets the entry capacity; 0 turns memoization off and frees the store.
  /// The store is bulk-evicted when an insert finds it full.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// The memoized pass from `source` for an oracle at graph epoch `epoch`,
  /// or null (a miss, or an oracle behind the memo's epoch).
  EntryPtr Find(std::uint64_t epoch, VertexId source);

  /// Stores the pass from `source` that produced `deps` on `dag` (weighted
  /// passes keep dag.wdist, unweighted ones dag.dist) for an oracle at
  /// `epoch`, and returns the entry now held for `source` — another
  /// oracle's bit-identical entry when it got there first. The returned
  /// entry is valid even when the memo keeps nothing (an oracle behind its
  /// epoch); callers check capacity() first to skip the copy when off.
  EntryPtr Insert(std::uint64_t epoch, VertexId source,
                  const std::vector<double>& deps, const ShortestPathDag& dag,
                  bool weighted);

  /// Carries the memo from graph epoch `epoch` to `epoch + 1`: `edits` (a
  /// resolved DynamicGraph::Apply batch) turn `old_graph` into `new_graph`,
  /// and `old_delta` is the pre-edit delta-stepping engine (weighted
  /// graphs; null otherwise) whose tie epsilon and minimum incident
  /// weights the weighted survival test reads. Drops the entries the edits
  /// touch (see the class comment) and extends the survivors to
  /// new_graph's vertex count. A no-op when the memo is already past
  /// `epoch` — another oracle applied these edits first.
  void ApplyGraphDelta(std::uint64_t epoch, const CsrGraph& old_graph,
                       const CsrGraph& new_graph,
                       std::span<const GraphEdit> edits,
                       const DeltaSpd* old_delta);

  /// Copies `other`'s entries (as seen by an oracle at `other_epoch`) into
  /// this memo (as seen by an oracle at `epoch`), skipping sources already
  /// present, until the capacity is reached. Entries are shared, not
  /// copied. Counts no hits and no inserts. Both oracles must be bound to
  /// the same graph.
  void MergeFrom(std::uint64_t epoch, const DependencyMemo& other,
                 std::uint64_t other_epoch);

  DependencyMemoStats Stats() const;

 private:
  /// Moves the memo to `epoch` when an oracle arrives from a newer one
  /// (dropping the stale entries); true when `epoch` is the memo's epoch.
  /// Requires mu_.
  bool AtEpoch(std::uint64_t epoch);

  mutable Mutex mu_;
  std::size_t capacity_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<VertexId, EntryPtr> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t invalidated_ = 0;
};

}  // namespace mhbc
