#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "serve/catalog.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "util/status.h"
#include "util/timer.h"

/// \file
/// The two benchmark workloads and what they report. perf_run.cc parses
/// the command line and prints; workloads.cc drives the timed phases;
/// load.cc is churn-serve's load generator; layers.cc replays a
/// workload's inputs against the lower-layer calls.

namespace perfbench {

/// One workload's generated inputs (see perf_gen.cc).
struct Inputs {
  std::string workload;
  std::string graph_path;
  std::uint64_t request_seed = 0;
  /// The delta chain, parsed through ParseEditScript; churn-serve sends it
  /// as mutates (empty on cold-estimate).
  std::vector<mhbc::GraphDelta> deltas;
  /// The same scripts as text, for `mutate` request lines.
  std::vector<std::string> delta_texts;
};

mhbc::StatusOr<Inputs> LoadInputs(const std::string& dir);

struct RunConfig {
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

/// A reported number. `base` is how many calls or samples it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t base = 0;
  std::string source;  ///< how it was measured (for the printed table)
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed correctness checks, described (empty = correct).
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;      ///< traced runs only
  std::vector<SpanSummary> spans;  ///< traced runs only
  std::vector<std::string> notes;

  void Fail(std::string what) { errors.push_back(std::move(what)); }
};

Outcome RunColdEstimate(const Inputs& inputs, const RunConfig& config);
Outcome RunChurnServe(const Inputs& inputs, const RunConfig& config);

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// hub (maximum degree), median and peripheral (minimum degree) targets;
/// ties keep the lowest id.
std::vector<mhbc::VertexId> PickTargets(const mhbc::CsrGraph& graph);

/// Arithmetic mean (0 when empty).
double Mean(const std::vector<double>& values);
/// q-quantile by nearest rank on a copy of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Host CPU time counters (/proc/stat, in ticks), to report how much time
/// the hypervisor took from this machine while it was being measured.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostTicks ReadHostTicks();
std::string StealNote(const HostTicks& start, const HostTicks& end);

/// Resets the kernel's peak-RSS mark to the current RSS, so PeakRssMb()
/// reads the peak since this call. False when the host does not allow it.
bool ResetPeakRss();
/// Peak RSS in MiB since the last reset (or since process start).
double PeakRssMb();

/// Bytes one dependency-memo entry holds: n doubles of dependencies plus
/// the pass distances kept for edit invalidation (n u32 hop distances
/// unweighted, n doubles weighted) — the engine's own sizing rule.
double MemoEntryBytes(const mhbc::CsrGraph& graph);

/// Applies the first `count` deltas of the chain and returns every epoch's
/// graph (index e = after e deltas), for replay at a response's epoch.
mhbc::StatusOr<std::vector<mhbc::CsrGraph>> EpochGraphs(
    const mhbc::CsrGraph& base, const std::vector<mhbc::GraphDelta>& deltas,
    std::size_t count);

// Layer replays (layers.cc): lower-layer calls timed one at a time on the
// workload's own graph and delta chain, after its timed phase.

/// sp.pass_us and sp.sweep_us (plus sp.edges_per_pass on an unweighted
/// graph): one BfsSpd or DeltaSpd pass and sweep per drawn source.
std::vector<Metric> ReplayPasses(const mhbc::CsrGraph& graph,
                                 std::uint64_t seed);
/// exact.miss_us (cached = false) or exact.hit_us (cached = true):
/// DependencyOracle::Dependencies on drawn sources.
Metric ReplayDependencies(const mhbc::CsrGraph& graph, std::uint64_t seed,
                          bool cached);
/// graph.apply_ms, graph.materialize_ms, exact.invalidate_ms,
/// exact.survival_ratio and centrality.apply_delta_ms along the first
/// deltas of the chain, on a memo holding every source and an engine
/// refilled after each edit by an mh request of `warm_samples` samples.
std::vector<Metric> ReplayChain(const mhbc::CsrGraph& graph,
                                const std::vector<mhbc::GraphDelta>& deltas,
                                std::uint64_t seed,
                                std::uint64_t warm_samples);

// ---------------------------------------------------------------------------
// Serving (load.cc)
// ---------------------------------------------------------------------------

// churn-serve runs the mhbc_serve defaults (2 sessions, 2 workers)
// under two closed-loop clients, so clients + workers stay within 4 cores.
inline constexpr std::size_t kSessions = 2;
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kClients = 2;
/// The mutator sends one delta after every this many completed reads.
inline constexpr std::uint64_t kReadsPerMutate = 4;
/// Every this many ok reads of a client, one is kept whole (PhaseResult).
inline constexpr std::uint64_t kSampleEvery = 16;

/// The catalog name every request addresses.
extern const char kGraphName[];

/// A catalog holding one graph in kSessions sessions, and the server on
/// it. The server is declared last so it stops before the catalog it
/// serves is destroyed; the graph must outlive both.
struct ServeStack {
  std::unique_ptr<mhbc::serve::GraphCatalog> catalog;
  std::unique_ptr<mhbc::serve::Server> server;
};
/// Stops any server and replaces the catalog with a fresh one on `graph`.
mhbc::Status AddCatalog(const mhbc::CsrGraph& graph, ServeStack* stack);
void StartServer(ServeStack* stack);

/// The three targets of serve request `seed`: distinct vertices drawn from
/// the seed, as callers asking about different junctions would send. Fixed
/// targets would tie every read's pass count to how those three chains'
/// proposals overlap on one seed's graph (+-13% between seeds).
std::vector<mhbc::VertexId> RequestTargets(mhbc::VertexId n,
                                           std::uint64_t seed);
/// An mh `estimate` request line.
std::string EstimateLine(std::uint64_t id,
                         const std::vector<mhbc::VertexId>& targets,
                         std::uint64_t samples, std::uint64_t seed);

/// One completed read: when it completed on the phase clock, and how long
/// it took.
struct Completion {
  double done_s = 0.0;
  double latency_ms = 0.0;
  double server_ms = 0.0;  ///< the response's elapsed_ms (serve reads)
};

/// One ok estimate response, kept whole for the replays.
struct Read {
  std::uint64_t seed = 0;
  std::vector<mhbc::VertexId> targets;
  std::uint64_t epoch = 0;
  std::vector<mhbc::serve::WireReport> reports;
};

/// One ok mutate response.
struct Mutate {
  std::uint64_t epoch = 0;
  double latency_ms = 0.0;
  double server_ms = 0.0;
};

/// What one closed-loop phase sends: each of kClients client threads sends
/// estimate requests back to back until `seconds` have passed; the calling
/// thread sends `scripts` as mutates, one after every kReadsPerMutate
/// completed reads, until the chain runs out.
struct PhasePlan {
  /// Vertices of the graph; request targets are RequestTargets(n, seed).
  mhbc::VertexId n = 0;
  std::uint64_t samples = 0;
  /// Request `id` carries seed `seed + id`.
  std::uint64_t seed = 0;
  const std::vector<std::string>* scripts = nullptr;
  double seconds = 0.0;
  /// Sample the queue depth every millisecond (for serve.queue_wait_ms).
  bool poll_queue = false;
};

struct PhaseResult {
  /// Every ok read.
  std::vector<Completion> completions;
  /// Every kSampleEvery-th ok read of each client, whole: keeping every
  /// response would make the load generator's memory grow with the
  /// server's throughput and fill peak_rss_mb.
  std::vector<Read> samples;
  std::vector<Mutate> mutates;
  /// Requests answered with an error or the wrong shape.
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  double queue_wait_ms = 0.0;
  std::uint64_t polls = 0;
  bool chain_exhausted = false;
};

/// Runs one phase against `server`. `recorders` holds kClients + 1 span
/// recorders: [0] for the calling thread, [1 + c] for client c.
PhaseResult RunPhase(mhbc::serve::Server& server, const PhasePlan& plan,
                     std::vector<SpanRecorder>* recorders);

/// The serve rows of the per-layer table from the timed phase: server_ms,
/// queue_wait_ms, outside_ms, mutate_p50_ms, mutate_p90_ms and drain_ms.
std::vector<Metric> ServeLayers(const PhaseResult& phase,
                                double apply_delta_ms);

}  // namespace perfbench
