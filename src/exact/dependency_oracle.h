#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exact/dependency_memo.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"

/// \file
/// The per-sample work unit shared by all samplers: a single-source
/// shortest-path pass plus dependency accumulation, exposing
/// delta_{source.}(target).

namespace mhbc {

/// Computes dependency scores delta_{v.}(r) on demand.
///
/// This is exactly the quantity the paper's acceptance ratio (Eq. 6/17)
/// needs: "it can be done in O(|E|) time for unweighted graphs and in
/// O(|E| + |V| log |V|) for weighted graphs" (§4.1). The oracle counts its
/// passes so harnesses can report work in pass units — the fair comparison
/// currency across samplers.
///
/// One pass from source v yields the dependency of v on *every* target at
/// once, so a single oracle shared by several estimators (or by one
/// estimator serving several target vertices — see centrality/engine.h)
/// can memoize whole dependency vectors and serve repeated sources without
/// re-running the pass. The vectors live in a DependencyMemo
/// (exact/dependency_memo.h): by default a private one, off until
/// set_cache_capacity(); or one shared with other oracles on the same
/// graph, passed at construction. Memoized answers are bit-identical to
/// recomputed ones (the passes are deterministic), so caching — and which
/// oracle filled the memo — never changes estimates, only work.
///
/// Reference validity. A vector returned by Dependencies() stays valid
/// until this oracle's next Dependencies(), Dependency(), EstimatorTerm()
/// or ApplyGraphDelta() call, also when other oracles share the memo: the
/// oracle holds the memo entry it returned, so an eviction by another
/// oracle drops the memo's reference, not this one. An oracle itself is
/// thread-compatible (one caller at a time); the memo it shares is
/// thread-safe, so oracles on different threads may share one.
///
/// Graph mutation. A memo serves one graph epoch. ApplyGraphDelta points
/// the oracle at the post-edit graph and switches it to a new memo carried
/// from its old one (DependencyMemo::Carry): the passes an edit provably
/// does not touch survive there, exactly as a fresh pass on the new graph
/// would compute them. Other oracles on the old memo keep it, and with it
/// the pre-edit graph's entries. The serving catalog instead carries one
/// memo per mutate and binds its sessions' engines to it (serve/catalog.h).
class DependencyOracle {
 public:
  /// The graph must outlive the oracle. Weighted graphs automatically use
  /// the canonical-wave delta-stepping engine, unweighted graphs the BFS
  /// engine — both configured by `spd` (kernel choice, α/β, thread count,
  /// grain, and bucket width change only the work per pass — the
  /// dependency vectors are bit-identical across all settings, see
  /// sp/bfs_spd.h and sp/delta_spd.h). `memo` is the store to memoize in,
  /// which must serve `graph` (null: a private one, off until
  /// set_cache_capacity()).
  explicit DependencyOracle(const CsrGraph& graph,
                            SpdOptions spd = SpdOptions(),
                            std::shared_ptr<DependencyMemo> memo = nullptr);

  /// Runs one pass from `source` and returns delta_{source.}(target).
  double Dependency(VertexId source, VertexId target);

  /// Runs one pass from `source` (or serves the memoized vector) and
  /// returns the whole dependency vector delta_{source.}(.) (see the class
  /// comment for how long it stays valid).
  const std::vector<double>& Dependencies(VertexId source);

  /// Runs one counted shortest-path pass from `source` and returns its DAG
  /// (valid until the next pass). Never memoized: it serves samplers that
  /// read the DAG itself rather than the dependency vector (RK's path
  /// backtrack, Geisberger's scaled sweep), so every pass an engine runs
  /// goes through one pass engine and one counter.
  const ShortestPathDag& Pass(VertexId source);

  /// Paper Eq. 7 integrand: f(v) = 1/(n-1) * sum_u sigma_{vu}(r)/sigma_{vu}
  ///                             = delta_{v.}(r) / (n-1).
  /// One pass from v.
  double EstimatorTerm(VertexId v, VertexId r);

  /// Sets the memo's capacity to `max_entries` dependency vectors (memory:
  /// DependencyMemo::EntryBytes each, n doubles on either graph kind; the
  /// memo is bulk-evicted when full). An entry keeps no distances: its edit
  /// survival is decided on the post-edit graph. 0 (the default of a
  /// private memo) disables caching and frees the store. On a shared memo
  /// this sizes it for every oracle on it.
  void set_cache_capacity(std::size_t max_entries);

  /// Rebinds the oracle to `new_graph` — the graph produced by applying
  /// the resolved edit batch `edits` (DynamicGraph::Apply output, with
  /// kRemoveEdge weights filled in) to the currently-bound graph — and
  /// advances the graph epoch. The oracle switches to the memo its old one
  /// carries across the edits (DependencyMemo::Carry), so the memoized
  /// passes the edits provably do not touch survive, and the SPD engines
  /// and accumulator are rebuilt against the new graph. Only `new_graph`
  /// is read: the survival test runs its reverse passes there (BFS
  /// unweighted, Dijkstra weighted), and the weighted one takes the
  /// pre-edit minimum incident weights from the pre-edit pass engine. The
  /// pre-edit graph may therefore be the same object edited in place.
  /// `new_graph` must outlive the oracle like the construction graph did.
  void ApplyGraphDelta(const CsrGraph& new_graph,
                       std::span<const GraphEdit> edits);

  /// Records `count` shortest-path passes executed *outside* the oracle on
  /// its behalf (distance-table setup, diameter probes), so every sampler
  /// reports its true total work through this one counter.
  void RecordSetupPasses(std::uint64_t count) { num_passes_ += count; }

  /// Number of shortest-path passes executed so far (including recorded
  /// setup passes; excluding cache hits, which cost no pass).
  std::uint64_t num_passes() const { return num_passes_; }

  /// Number of this oracle's Dependencies() calls served from the memo
  /// without a pass.
  std::uint64_t cache_hits() const { return cache_hits_; }

  /// Number of ApplyGraphDelta rebinds so far.
  std::uint64_t graph_epoch() const { return graph_epoch_; }

  /// Memoized passes currently held by the memo (all oracles' on a shared
  /// one).
  std::size_t cached_entries() const { return memo_->Stats().entries; }

  /// Cumulative memo entries dropped by graph edits (the selectivity
  /// readout: low relative to cached_entries() means most passes survive
  /// each edit batch).
  std::uint64_t invalidated_entries() const {
    return memo_->Stats().invalidated;
  }

  const CsrGraph& graph() const { return *graph_; }

  /// The memo the oracle reads and fills.
  const std::shared_ptr<DependencyMemo>& memo() const { return memo_; }

 private:
  const CsrGraph* graph_;
  SpdOptions spd_;
  std::unique_ptr<BfsSpd> bfs_;
  std::unique_ptr<DeltaSpd> delta_;
  DependencyAccumulator accumulator_;
  std::shared_ptr<DependencyMemo> memo_;
  /// The memo entry Dependencies() last returned, held so the returned
  /// reference outlives an eviction by another oracle on the memo.
  DependencyMemo::EntryPtr returned_;
  std::uint64_t num_passes_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t graph_epoch_ = 0;
};

}  // namespace mhbc
