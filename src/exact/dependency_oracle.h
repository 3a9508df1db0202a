#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

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
/// re-running the pass. Memoization is opt-in via set_cache_capacity();
/// cached answers are bit-identical to recomputed ones (the passes are
/// deterministic), so caching never changes estimates, only work.
///
/// Graph mutation. The oracle supports epoch-tagged rebinding for the
/// dynamic-graph path (BetweennessEngine::ApplyDelta): ApplyGraphDelta
/// points the oracle at the post-edit graph and drops *only* the memoized
/// passes whose BFS trees an edit touches. For unweighted graphs each
/// cached pass keeps its hop-distance vector, and an edit {u,v} provably
/// leaves the pass' whole shortest-path DAG — distances, sigma, canonical
/// order, and therefore the dependency vector bit-for-bit — unchanged iff
/// dist(s,u) == dist(s,v) (an intra-level or fully-unreached edge lies on
/// no shortest path, and inserting one creates none). Weighted passes keep
/// their weighted-distance vector instead and survive an edit {u,v,w} iff
/// (a) both endpoints were unreached (the edit happens outside the pass'
/// component), or (b) both were reached, the edge is *slack both ways* —
/// wdist(s,u) + w exceeds wdist(s,v) by more than the canonical tie
/// epsilon and vice versa, so it lies on no shortest path, creates none,
/// and creates or breaks no tie — and w leaves both endpoints' minimum
/// incident weight unchanged (>= minw on insert, > minw on remove). The
/// minw gate is what makes the test sound for DeltaSpd's canonical waves:
/// wave membership — and with it the settle order, the level slices, and
/// every floating-point regrouping downstream — is a function of distances
/// and per-vertex minimum incident weights alone (the bucket width drifts
/// with the mean edge weight, but outputs are invariant under it, see
/// sp/delta_spd.h). Passes failing their test for any edit in the batch
/// are dropped; survivors are extended with unreached sentinels for
/// appended vertices and served exactly as a fresh pass on the new graph
/// would compute them.
class DependencyOracle {
 public:
  /// The graph must outlive the oracle. Weighted graphs automatically use
  /// the canonical-wave delta-stepping engine, unweighted graphs the BFS
  /// engine — both configured by `spd` (kernel choice, α/β, thread count,
  /// grain, and bucket width change only the work per pass — the
  /// dependency vectors are bit-identical across all settings, see
  /// sp/bfs_spd.h and sp/delta_spd.h).
  explicit DependencyOracle(const CsrGraph& graph, SpdOptions spd = SpdOptions());

  /// Runs one pass from `source` and returns delta_{source.}(target).
  double Dependency(VertexId source, VertexId target);

  /// Runs one pass from `source` (or serves the memoized vector) and
  /// returns the whole dependency vector delta_{source.}(.) (valid until
  /// the next call).
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

  /// Enables memoization of up to `max_entries` dependency vectors
  /// (memory: max_entries * n doubles, plus n u32 hop distances per entry
  /// on unweighted graphs or n doubles of weighted distances on weighted
  /// ones; the cache is bulk-evicted when full). The distance vectors are
  /// kept unconditionally — a +50-100% per-entry cost even for
  /// never-mutated workloads — because the passes memoized *before* the
  /// first edit are exactly the warm state ApplyGraphDelta exists to
  /// preserve; retaining distances lazily would force that first edit to
  /// drop everything. 0 (the default) disables caching and frees the
  /// store.
  void set_cache_capacity(std::size_t max_entries);

  /// Copies `other`'s memoized dependency vectors into this oracle's memo
  /// (skipping sources already present) until this oracle's capacity is
  /// reached. Counts no passes and no hits — it moves knowledge, not work.
  /// Used by the engine's sharded fan-out: per-worker oracles run races-free
  /// in isolation and their memos merge back on completion, so later
  /// queries on the owning engine reuse the shards' passes. Both oracles
  /// must be bound to the same graph; memoized vectors are deterministic,
  /// so merged entries are bit-identical to locally computed ones.
  void MergeCacheFrom(const DependencyOracle& other);

  /// Rebinds the oracle to `new_graph` — the graph produced by applying
  /// the resolved edit batch `edits` (DynamicGraph::Apply output, with
  /// kRemoveEdge weights filled in) to the currently-bound graph — and
  /// advances the graph epoch. Memoized passes the edits provably do not
  /// touch survive (see class comment); the SPD engines and accumulator
  /// are rebuilt against the new graph. `new_graph` must outlive the
  /// oracle like the construction graph did.
  void ApplyGraphDelta(const CsrGraph& new_graph,
                       std::span<const GraphEdit> edits);

  /// Records `count` shortest-path passes executed *outside* the oracle on
  /// its behalf (distance-table setup, diameter probes), so every sampler
  /// reports its true total work through this one counter.
  void RecordSetupPasses(std::uint64_t count) { num_passes_ += count; }

  /// Number of shortest-path passes executed so far (including recorded
  /// setup passes; excluding cache hits, which cost no pass).
  std::uint64_t num_passes() const { return num_passes_; }

  /// Number of Dependencies() calls served from the memo without a pass.
  std::uint64_t cache_hits() const { return cache_hits_; }

  /// Number of ApplyGraphDelta rebinds so far (0 = construction graph).
  std::uint64_t graph_epoch() const { return graph_epoch_; }

  /// Memoized passes currently held.
  std::size_t cached_entries() const { return cache_.size(); }

  /// Cumulative memo entries dropped by ApplyGraphDelta edits (the
  /// selectivity readout: low relative to cached_entries() means most
  /// passes survive each edit batch).
  std::uint64_t invalidated_entries() const { return invalidated_entries_; }

  const CsrGraph& graph() const { return *graph_; }

 private:
  /// One memoized pass: the dependency vector plus the pass' distances —
  /// hop distances on unweighted graphs, weighted distances on weighted
  /// ones — kept for the edit-survival test.
  struct CacheEntry {
    std::vector<double> deps;
    std::vector<std::uint32_t> hops;
    std::vector<double> wdists;
  };

  const CsrGraph* graph_;
  SpdOptions spd_;
  std::unique_ptr<BfsSpd> bfs_;
  std::unique_ptr<DeltaSpd> delta_;
  DependencyAccumulator accumulator_;
  std::uint64_t num_passes_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t graph_epoch_ = 0;
  std::uint64_t invalidated_entries_ = 0;
  std::size_t cache_capacity_ = 0;
  std::unordered_map<VertexId, CacheEntry> cache_;
};

}  // namespace mhbc
