#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "centrality/engine.h"
#include "exact/dependency_memo.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "util/status.h"

/// \file
/// GraphCatalog — named graphs with warm engine-session pools and the
/// graph epochs behind mhbc_serve.
///
/// A BetweennessEngine is thread-compatible, not thread-safe, so the unit
/// of concurrency is one engine per in-flight reader: each catalog entry
/// owns a fixed pool of engines ("sessions") with the same options, and a
/// reader checks one out through an RAII ReadLease. Warm sessions are the
/// point of the pool: each engine's whole-graph products persist across
/// requests at one epoch, and all sessions share the current epoch's one
/// dependency memo (exact/dependency_memo.h), sized from
/// EngineOptions::dependency_cache_bytes per graph, not per session. A
/// pass one session runs serves every session after it, and the shared
/// memo's memory does not grow with the session count (engine shards,
/// num_threads > 1, share it too).
///
/// Mutation publishes epochs. A GraphEpoch is one immutable graph plus the
/// one memo that serves it. Mutate() applies the delta once, builds the
/// next epoch — its graph, and a memo carrying the previous epoch's
/// surviving entries (DependencyMemo::Carry) — and installs it with one
/// pointer swap. Mutates serialize among themselves and never wait for
/// reads; a read waits only for a free session. A lease pins the epoch that
/// was current when it was taken, and its session's engine is bound to
/// that epoch's graph and memo (BetweennessEngine::BindEpoch) until the
/// lease returns; idle sessions are rebound to the current epoch, so they
/// pin none. An epoch therefore lives as long as its leases, and a read
/// runs start to finish on one immutable graph: it reflects the epoch that
/// was current when it took its lease, and its response names that epoch.
/// Because a bound engine's reports are bit-identical to a cold engine's
/// on the epoch's graph, two readers at the same epoch get bit-identical
/// statistical report fields no matter which pooled session served them.
/// tests/serve_concurrency_test.cc holds this to the bit.
///
/// The catalog itself is fixed at startup (register every graph before
/// serving begins); only the per-entry session state is synchronized.

namespace mhbc::serve {

class GraphEntry;

/// One published graph epoch: an immutable graph and the dependency memo
/// of exactly that graph. Held by shared pointer — by its entry while it
/// is current and by every lease taken on it — and freed with the last.
struct GraphEpoch {
  std::uint64_t number = 0;
  CsrGraph graph;
  std::shared_ptr<DependencyMemo> memo;
};

/// RAII checkout of one pooled engine. While a lease is live its engine
/// is exclusively yours and stays bound to the lease's epoch, whatever
/// mutates publish meanwhile. Leases are movable; destruction (or Release)
/// returns the session to the pool, wakes a waiting reader, and lets go of
/// the epoch.
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
  std::uint64_t epoch() const { return epoch_number_; }

  /// Returns the session early (idempotent).
  void Release();

 private:
  friend class GraphEntry;
  ReadLease(GraphEntry* entry, BetweennessEngine* engine,
            std::shared_ptr<const GraphEpoch> epoch)
      : entry_(entry),
        engine_(engine),
        epoch_(std::move(epoch)),
        epoch_number_(epoch_->number) {}

  GraphEntry* entry_ = nullptr;
  BetweennessEngine* engine_ = nullptr;
  std::shared_ptr<const GraphEpoch> epoch_;
  std::uint64_t epoch_number_ = 0;
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
  /// Published epochs still held: the current one plus every superseded
  /// one a lease still pins.
  std::size_t epochs_live = 0;
  /// The served graph at `epoch`.
  GraphShape shape;
  /// The current epoch's dependency memo, shared by its sessions. hits,
  /// inserts, invalidated and carry_passes are cumulative over the entry's
  /// epochs.
  DependencyMemoStats memo;
};

/// One named graph: its current epoch plus the session pool. Pinned in
/// memory (catalog entries live behind unique_ptr).
class GraphEntry {
 public:
  /// Publishes `graph` as epoch 0 and builds `sessions` engines bound to
  /// it. `sessions` must be >= 1.
  GraphEntry(std::string name, CsrGraph graph, const EngineOptions& options,
             std::size_t sessions);

  GraphEntry(const GraphEntry&) = delete;
  GraphEntry& operator=(const GraphEntry&) = delete;

  const std::string& name() const { return name_; }

  /// Blocks until a session is free, then checks it out bound to the
  /// current epoch. Never waits for a mutate's build.
  ReadLease AcquireRead();

  /// Applies `delta` to the current epoch's graph, publishes the result as
  /// the next epoch, and returns the epoch and graph shape it installed.
  /// Reads in flight finish on the epoch they leased; Mutate does not wait
  /// for them. An invalid delta returns InvalidArgument and publishes
  /// nothing. An empty delta is a successful no-op that keeps the epoch.
  StatusOr<MutateResult> Mutate(const GraphDelta& delta);

  /// Safe to call at any time, also while a mutate runs: it reads the
  /// entry's own counters and the current epoch, never a session's engine.
  GraphEntryStats Stats() const;

 private:
  friend class ReadLease;
  void ReturnSession(BetweennessEngine* engine);
  /// Wraps `epoch` for publication; epochs_live_ counts it until freed.
  std::shared_ptr<const GraphEpoch> Publish(std::unique_ptr<GraphEpoch> epoch);

  const std::string name_;
  const EngineOptions options_;
  /// Published epochs not yet freed (an epoch's deleter decrements it from
  /// whichever thread lets go of it last).
  std::atomic<std::size_t> epochs_live_{0};
  /// Serializes mutates; never held by a reader.
  std::mutex write_mu_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// The epoch new leases bind to; swapped by Mutate under mu_.
  std::shared_ptr<const GraphEpoch> current_;
  /// Engines bound to current_ while idle, or to their lease's epoch.
  std::vector<std::unique_ptr<BetweennessEngine>> sessions_;
  std::vector<BetweennessEngine*> free_;  ///< checkout stack
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
