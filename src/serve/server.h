#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/catalog.h"
#include "serve/protocol.h"

/// \file
/// Server — the transport-independent request executor behind mhbc_serve.
///
/// A Server owns a bounded worker pool fed by a bounded priority admission
/// queue. Transports (the TCP listener and --stdio loop in
/// examples/mhbc_serve.cpp, the in-process clients in tests and
/// bench_e23_serve) all speak to it through one entry point:
/// Call(request_line) -> response_line. Call parses and classifies the
/// line, admits it, blocks until a worker finishes it, and returns the
/// response — so a transport is just "read line, Call, write line" on its
/// own connection thread, and every production concern lives here:
///
/// - **Admission is non-blocking.** A full queue rejects immediately with
///   the `overload` error class (clients retry; the server never builds an
///   unbounded backlog). `stats` bypasses the queue entirely and is served
///   inline, so health checks and tests can observe queue state while the
///   workers are saturated.
/// - **Priorities.** Requests carry priority in [0, 9]; the queue serves
///   higher priorities first, FIFO (admission order) within a priority.
/// - **Deadlines** are enforced at three points: on arrival (deadline_ms
///   of 0 means "expired on arrival" and is rejected by admission with the
///   `deadline` class), at dequeue (a request whose budget elapsed while
///   queued gets the `deadline` class without touching an engine), and
///   mid-flight for `estimate` (the remaining budget maps onto the
///   engine's BudgetKind::kDeadline stop rule, so an expiring request
///   returns the samples it managed as a *partial* report whose entries
///   carry `"flag": "kDeadline"` instead of an error).
/// - **Epochs.** A graph read runs under a catalog ReadLease on the epoch
///   that was current when it took the lease, and its response names that
///   epoch. `mutate` publishes the next epoch without waiting for reads in
///   flight, and an epoch lives as long as its leases (serve/catalog.h has
///   the bit-identity contract).

namespace mhbc::serve {

/// Server sizing knobs.
struct ServerOptions {
  /// Worker threads executing admitted requests.
  std::size_t workers = 2;
  /// Admission queue capacity — requests *waiting*, not counting the ones
  /// workers are executing. Admission past this rejects with `overload`.
  std::size_t queue_capacity = 64;
  /// Longest accepted request line; longer lines are `parse` errors.
  std::size_t max_line_bytes = std::size_t{1} << 20;  // 1 MiB
};

/// Point-in-time server counters (the `stats` method payload).
struct ServerStats {
  std::size_t queue_depth = 0;
  std::size_t busy_workers = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_deadline = 0;
};

/// The request executor. Thread-safe: any number of transport threads may
/// Call() concurrently. The catalog must outlive the server and be fully
/// populated before the first Call.
class Server {
 public:
  Server(GraphCatalog* catalog, ServerOptions options = ServerOptions());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Executes one request line end to end and returns the response line
  /// (no trailing newline). Never throws; every failure mode is a
  /// classified error response.
  std::string Call(const std::string& line);

  /// Stops the workers after fulfilling in-flight requests; queued
  /// requests are failed with `overload`. Idempotent; the destructor
  /// calls it.
  void Stop();

  ServerStats Stats() const;
  const ServerOptions& options() const { return options_; }
  GraphCatalog& catalog() const { return *catalog_; }

 private:
  struct Job;

  /// Queue admission. On success takes ownership of `job` and returns
  /// true; on rejection leaves `job` with the caller and fills `error`
  /// with the overload/deadline classification.
  bool Admit(std::unique_ptr<Job>& job, ServeError* error);

  void WorkerLoop();

  /// Runs one admitted request against the catalog (worker thread).
  std::string Execute(Job& job);
  std::string ExecuteEstimate(Job& job, GraphEntry& entry);
  std::string ExecuteRank(Job& job, GraphEntry& entry);
  std::string ExecuteTopK(Job& job, GraphEntry& entry);
  std::string ExecuteMutate(Job& job, GraphEntry& entry);
  /// `stats` (inline, queue-bypassing).
  std::string ExecuteStats(const ServeRequest& request);

  GraphCatalog* catalog_;
  const ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> queue_;  ///< unordered; dequeue scans
  std::uint64_t next_sequence_ = 0;
  std::size_t busy_workers_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t rejected_deadline_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace mhbc::serve
