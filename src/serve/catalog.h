#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "exact/dependency_memo.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "util/status.h"

/// \file
/// GraphCatalog — named graphs with warm engine-session pools and the
/// read/write epoch scheme behind mhbc_serve.
///
/// A BetweennessEngine is thread-compatible, not thread-safe, so the unit
/// of concurrency is one engine per in-flight reader: each catalog entry
/// owns a fixed pool of engines ("sessions") built on the same graph with
/// the same options, and a reader checks one out through an RAII
/// ReadLease. Warm sessions are the point of the pool: each engine's
/// whole-graph products persist across requests, and all sessions share
/// one dependency memo (exact/dependency_memo.h), sized from
/// EngineOptions::dependency_cache_bytes per graph, not per session. A
/// pass one session runs serves every session after it, and the shared
/// memo's memory does not grow with the session count (engine shards,
/// num_threads > 1, keep private memos of their own).
///
/// Mutation installs atomically under a writer-preferred guard: Mutate()
/// blocks new readers, drains the in-flight ones (waits until every
/// session is back in the pool), applies the *same* GraphDelta to every
/// pooled engine (the shared memo filters the edits once, when the first
/// session applies them), and advances the entry epoch. Because the engine's
/// ApplyDelta contract makes post-edit reports bit-identical to a cold
/// engine on the post-edit graph, every session leaves the critical
/// section bit-equivalent: a reader can never observe a half-installed
/// delta, and two concurrent readers at the same epoch get bit-identical
/// statistical report fields no matter which pooled session served them.
/// tests/serve_concurrency_test.cc holds this to the bit.
///
/// The catalog itself is fixed at startup (register every graph before
/// serving begins); only the per-entry session state is synchronized.

namespace mhbc::serve {

class GraphEntry;

/// RAII checkout of one pooled engine. While a lease is live its engine
/// is exclusively yours and the entry's epoch cannot advance. Leases are
/// movable; destruction (or Release) returns the session to the pool and
/// wakes waiting readers/writers.
class ReadLease {
 public:
  ReadLease() = default;
  ReadLease(ReadLease&& other) noexcept;
  ReadLease& operator=(ReadLease&& other) noexcept;
  ~ReadLease();

  ReadLease(const ReadLease&) = delete;
  ReadLease& operator=(const ReadLease&) = delete;

  bool valid() const { return engine_ != nullptr; }
  BetweennessEngine& engine() const { return *engine_; }
  /// The entry epoch at checkout time — constant for the lease's life.
  std::uint64_t epoch() const { return epoch_; }

  /// Returns the session early (idempotent).
  void Release();

 private:
  friend class GraphEntry;
  ReadLease(GraphEntry* entry, BetweennessEngine* engine, std::uint64_t epoch)
      : entry_(entry), engine_(engine), epoch_(epoch) {}

  GraphEntry* entry_ = nullptr;
  BetweennessEngine* engine_ = nullptr;
  std::uint64_t epoch_ = 0;
};

/// The size of a served graph at one epoch.
struct GraphShape {
  VertexId num_vertices = 0;
  /// Undirected pairs, or arcs when `directed`.
  std::uint64_t num_edges = 0;
  /// Directedness of the served graph (fixed at registration).
  bool directed = false;
};

/// What one Mutate installed: the entry epoch after it and the served
/// graph's shape at that epoch.
struct MutateResult {
  std::uint64_t epoch = 0;
  GraphShape shape;
};

/// Point-in-time counters for the `stats` method and tests.
struct GraphEntryStats {
  std::uint64_t epoch = 0;
  std::size_t sessions = 0;
  std::size_t sessions_free = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t mutations_applied = 0;
  /// The served graph at `epoch`.
  GraphShape shape;
  /// The graph's one dependency memo, shared by its sessions.
  DependencyMemoStats memo;
};

/// One named graph: the owned base CSR plus its session pool and epoch
/// guard. Pinned in memory (catalog entries live behind unique_ptr).
class GraphEntry {
 public:
  /// Builds `sessions` engines over the owned copy of `graph`.
  /// `sessions` must be >= 1.
  GraphEntry(std::string name, CsrGraph graph, const EngineOptions& options,
             std::size_t sessions);

  GraphEntry(const GraphEntry&) = delete;
  GraphEntry& operator=(const GraphEntry&) = delete;

  const std::string& name() const { return name_; }

  /// Blocks until a session is free and no writer is active or waiting
  /// (writer preference keeps a mutation from starving behind a steady
  /// reader stream), then checks it out.
  ReadLease AcquireRead();

  /// Drains readers, applies `delta` to every pooled session, advances
  /// the epoch, and returns the epoch and graph shape it installed.
  /// Validation runs against the first session (whose ApplyDelta is
  /// atomic), so an invalid delta returns InvalidArgument with every
  /// session untouched and the epoch unchanged. An empty delta is a
  /// successful no-op that keeps the epoch.
  StatusOr<MutateResult> Mutate(const GraphDelta& delta);

  /// Safe to call at any time, also while a mutate runs: it reads the
  /// entry's own counters and the memo's, never a session's engine.
  GraphEntryStats Stats() const;

 private:
  friend class ReadLease;
  void ReturnSession(BetweennessEngine* engine);

  const std::string name_;
  CsrGraph graph_;  ///< construction base; engines own post-edit state
  /// The one dependency memo every session's engine is constructed on.
  const std::shared_ptr<DependencyMemo> memo_;
  std::vector<std::unique_ptr<BetweennessEngine>> sessions_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<BetweennessEngine*> free_;  ///< checkout stack
  std::size_t writers_waiting_ = 0;
  bool writer_active_ = false;
  std::uint64_t epoch_ = 0;
  GraphShape shape_;  ///< of the graph at epoch_, written with it
  std::uint64_t reads_served_ = 0;
  std::uint64_t mutations_applied_ = 0;
};

/// The daemon's name -> GraphEntry map. Populate before serving starts;
/// lookups after that are read-only and need no synchronization.
class GraphCatalog {
 public:
  /// Registers a graph under `name` with a pool of `sessions` engines.
  /// Duplicate names fail with FailedPrecondition.
  Status AddGraph(const std::string& name, CsrGraph graph,
                  const EngineOptions& options, std::size_t sessions);

  /// Null when `name` is not registered.
  GraphEntry* Find(const std::string& name) const;

  /// Registered names in lexicographic order.
  std::vector<std::string> Names() const;

  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, std::unique_ptr<GraphEntry>> entries_;
};

}  // namespace mhbc::serve
