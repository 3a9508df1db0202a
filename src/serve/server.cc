#include "serve/server.h"

#include <future>
#include <sstream>
#include <utility>

#include "serve/request_fields.h"
#include "util/timer.h"

namespace mhbc::serve {

namespace {

/// Engine/catalog Status -> wire error class. Engine-side validation
/// failures (bad vertex for this graph, estimator unsupported on a
/// weighted graph, malformed edit script semantics) are the client's
/// fault -> `field`; anything else on an admitted request is `internal`.
ServeErrorClass ClassifyStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return ServeErrorClass::kField;
    case StatusCode::kNotFound:
      return ServeErrorClass::kGraph;
    default:
      return ServeErrorClass::kInternal;
  }
}

std::string ErrorFor(const ServeRequest& request, ServeErrorClass error_class,
                     std::string message) {
  ServeError error;
  error.error_class = error_class;
  error.message = std::move(message);
  return FormatErrorResponse(&request, error);
}

}  // namespace

/// One admitted request: the parsed payload, its place in the priority
/// order, its own arrival stopwatch (deadline budgets are measured from
/// admission), and the promise the transport thread blocks on.
struct Server::Job {
  ServeRequest request;
  std::uint64_t sequence = 0;
  WallTimer timer;
  std::promise<std::string> response;
};

Server::Server(GraphCatalog* catalog, ServerOptions options)
    : catalog_(catalog), options_(options) {
  const std::size_t workers = options_.workers == 0 ? 1 : options_.workers;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() { Stop(); }

void Server::Stop() {
  std::vector<std::unique_ptr<Job>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    orphaned.swap(queue_);
  }
  cv_.notify_all();
  for (std::unique_ptr<Job>& job : orphaned) {
    job->response.set_value(
        ErrorFor(job->request, ServeErrorClass::kOverload,
                 "server stopping before the request ran"));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ServerStats Server::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats stats;
  stats.queue_depth = queue_.size();
  stats.busy_workers = busy_workers_;
  stats.admitted = admitted_;
  stats.completed = completed_;
  stats.rejected_overload = rejected_overload_;
  stats.rejected_deadline = rejected_deadline_;
  return stats;
}

std::string Server::Call(const std::string& line) {
  ServeRequest request;
  ServeError error;
  if (!ParseServeRequest(line, options_.max_line_bytes, &request, &error)) {
    return FormatErrorResponse(&request, error);
  }
  if (request.method == ServeMethod::kStats) {
    // Inline and queue-bypassing by design: stats must stay observable
    // while the workers are saturated (that is what makes the overload
    // tests deterministic).
    return ExecuteStats(request);
  }
  GraphEntry* entry = catalog_->Find(request.graph);
  if (entry == nullptr) {
    std::string serving;
    for (const std::string& name : catalog_->Names()) {
      serving += serving.empty() ? name : ", " + name;
    }
    return ErrorFor(request, ServeErrorClass::kGraph,
                    "unknown graph '" + request.graph +
                        "' (serving: " + serving + ")");
  }

  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  std::future<std::string> response = job->response.get_future();
  if (!Admit(job, &error)) {
    return FormatErrorResponse(&job->request, error);
  }
  return response.get();
}

bool Server::Admit(std::unique_ptr<Job>& job, ServeError* error) {
  ServeRequest& request = job->request;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    ++rejected_overload_;
    error->error_class = ServeErrorClass::kOverload;
    error->message = "server is stopping";
  } else if (request.deadline_ms == 0.0) {
    ++rejected_deadline_;
    error->error_class = ServeErrorClass::kDeadline;
    error->message = "deadline_ms=0: the deadline expired on arrival";
  } else if (queue_.size() >= options_.queue_capacity) {
    ++rejected_overload_;
    error->error_class = ServeErrorClass::kOverload;
    error->message = "admission queue full (capacity " +
                     std::to_string(options_.queue_capacity) +
                     ") — retry later";
  } else {
    job->sequence = next_sequence_++;
    job->timer.Reset();  // deadline budgets start at admission
    ++admitted_;
    queue_.push_back(std::move(job));
    cv_.notify_one();
    return true;
  }
  return false;  // rejected: the caller still owns `job` for the id echo
}

void Server::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Highest priority first, FIFO (admission sequence) within one.
      // Linear scan — the queue is small and bounded by construction.
      std::size_t best = 0;
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        const Job& candidate = *queue_[i];
        const Job& incumbent = *queue_[best];
        if (candidate.request.priority > incumbent.request.priority ||
            (candidate.request.priority == incumbent.request.priority &&
             candidate.sequence < incumbent.sequence)) {
          best = i;
        }
      }
      job = std::move(queue_[best]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
      ++busy_workers_;
    }
    std::string response = Execute(*job);
    job->response.set_value(std::move(response));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_workers_;
      ++completed_;
    }
  }
}

std::string Server::Execute(Job& job) {
  const ServeRequest& request = job.request;
  if (request.deadline_ms > 0.0) {
    const double elapsed_ms = job.timer.ElapsedSeconds() * 1000.0;
    if (elapsed_ms >= request.deadline_ms) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++rejected_deadline_;
      }
      return ErrorFor(request, ServeErrorClass::kDeadline,
                      "deadline of " + std::to_string(request.deadline_ms) +
                          " ms expired after " + std::to_string(elapsed_ms) +
                          " ms in queue");
    }
  }
  GraphEntry* entry = catalog_->Find(request.graph);
  if (entry == nullptr) {  // admission already checked; defensive
    return ErrorFor(request, ServeErrorClass::kGraph,
                    "unknown graph '" + request.graph + "'");
  }
  switch (request.method) {
    case ServeMethod::kEstimate: return ExecuteEstimate(job, *entry);
    case ServeMethod::kRank: return ExecuteRank(job, *entry);
    case ServeMethod::kTopK: return ExecuteTopK(job, *entry);
    case ServeMethod::kMutate: return ExecuteMutate(job, *entry);
    case ServeMethod::kStats: break;  // handled inline in Call
  }
  return ErrorFor(request, ServeErrorClass::kInternal,
                  "method not routable");
}

std::string Server::ExecuteEstimate(Job& job, GraphEntry& entry) {
  const ServeRequest& request = job.request;
  ReadLease lease = entry.AcquireRead();
  const Status range = ValidateVertexIds(
      request.vertices, lease.engine().graph().num_vertices());
  if (!range.ok()) {
    return ErrorFor(request, ServeErrorClass::kField, range.message());
  }

  EstimateRequest engine_request;
  engine_request.kind = request.estimator;
  engine_request.samples = request.samples;
  engine_request.seed = request.seed;
  const bool deadline_budget = request.deadline_ms > 0.0;
  if (deadline_budget) {
    const double remaining_seconds =
        request.deadline_ms / 1000.0 - job.timer.ElapsedSeconds();
    if (remaining_seconds <= 0.0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++rejected_deadline_;
      }
      return ErrorFor(request, ServeErrorClass::kDeadline,
                      "deadline expired before execution began");
    }
    // The remaining wall budget becomes the engine's stop rule, shared by
    // every vertex of the request (EstimateMany measures it from its own
    // start); the requested sample count becomes the ceiling, so a
    // generous deadline reproduces the kSamples answer and a tight one
    // returns partial reports (flagged below) instead of an error.
    engine_request.budget = BudgetKind::kDeadline;
    engine_request.deadline_seconds = remaining_seconds;
    engine_request.max_samples = request.samples;
  }

  auto reports =
      lease.engine().EstimateMany(request.vertices, engine_request);
  if (!reports.ok()) {
    return ErrorFor(request, ClassifyStatus(reports.status()),
                    reports.status().message());
  }
  std::vector<WireReport> wire;
  wire.reserve(reports.value().size());
  for (const EstimateReport& report : reports.value()) {
    WireReport w;
    w.vertex = report.vertex;
    w.value = report.value;
    w.std_error = report.std_error;
    w.ci_half_width = report.ci_half_width;
    w.ess = report.ess;
    w.acceptance_rate = report.acceptance_rate;
    w.samples_used = report.samples_used;
    w.converged = report.converged;
    w.deadline_flagged = deadline_budget && report.samples_used > 0 &&
                         report.samples_used < request.samples;
    wire.push_back(w);
  }
  return FormatOkResponse(request, lease.epoch(),
                          job.timer.ElapsedSeconds() * 1000.0,
                          FormatEstimateResult(wire));
}

std::string Server::ExecuteRank(Job& job, GraphEntry& entry) {
  const ServeRequest& request = job.request;
  ReadLease lease = entry.AcquireRead();
  const Status range = ValidateVertexIds(
      request.vertices, lease.engine().graph().num_vertices());
  if (!range.ok()) {
    return ErrorFor(request, ServeErrorClass::kField, range.message());
  }
  auto order = lease.engine().RankTargets(request.vertices,
                                          request.iterations, request.seed);
  if (!order.ok()) {
    return ErrorFor(request, ClassifyStatus(order.status()),
                    order.status().message());
  }
  std::ostringstream result;
  result << "{\"order\": [";
  for (std::size_t i = 0; i < order.value().size(); ++i) {
    if (i > 0) result << ", ";
    result << request.vertices[order.value()[i]];
  }
  result << "]}";
  return FormatOkResponse(request, lease.epoch(),
                          job.timer.ElapsedSeconds() * 1000.0, result.str());
}

std::string Server::ExecuteTopK(Job& job, GraphEntry& entry) {
  const ServeRequest& request = job.request;
  ReadLease lease = entry.AcquireRead();
  auto entries =
      lease.engine().TopK(request.k, request.eps, request.delta, request.seed);
  if (!entries.ok()) {
    return ErrorFor(request, ClassifyStatus(entries.status()),
                    entries.status().message());
  }
  std::ostringstream result;
  result << "{\"topk\": [";
  for (std::size_t i = 0; i < entries.value().size(); ++i) {
    const TopKEntry& e = entries.value()[i];
    if (i > 0) result << ", ";
    result << "{\"vertex\": " << e.vertex
           << ", \"estimate\": " << JsonDouble(e.estimate) << "}";
  }
  result << "]}";
  return FormatOkResponse(request, lease.epoch(),
                          job.timer.ElapsedSeconds() * 1000.0, result.str());
}

std::string Server::ExecuteMutate(Job& job, GraphEntry& entry) {
  const ServeRequest& request = job.request;
  auto delta = ParseEditScriptText(request.edits, "mutate request");
  if (!delta.ok()) {
    return ErrorFor(request, ServeErrorClass::kField,
                    delta.status().message());
  }
  const StatusOr<MutateResult> applied = entry.Mutate(delta.value());
  if (!applied.ok()) {
    return ErrorFor(request, ClassifyStatus(applied.status()),
                    applied.status().message());
  }
  // The epoch and shape this mutate installed, not the entry's current
  // ones: another worker's mutate may have installed the next epoch since.
  const MutateResult& installed = applied.value();
  std::ostringstream result;
  result << "{\"applied_ops\": " << delta.value().size()
         << ", \"num_vertices\": " << installed.shape.num_vertices
         << ", \"num_edges\": " << installed.shape.num_edges
         << ", \"directed\": "
         << (installed.shape.directed ? "true" : "false") << "}";
  return FormatOkResponse(request, installed.epoch,
                          job.timer.ElapsedSeconds() * 1000.0, result.str());
}

std::string Server::ExecuteStats(const ServeRequest& request) {
  std::vector<std::string> names;
  if (!request.graph.empty()) {
    if (catalog_->Find(request.graph) == nullptr) {
      return ErrorFor(request, ServeErrorClass::kGraph,
                      "unknown graph '" + request.graph + "'");
    }
    names.push_back(request.graph);
  } else {
    names = catalog_->Names();
  }
  const ServerStats server = Stats();
  std::ostringstream result;
  result << "{\"graphs\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const GraphEntryStats g = catalog_->Find(names[i])->Stats();
    if (i > 0) result << ", ";
    result << "{\"name\": " << JsonQuote(names[i]) << ", \"epoch\": " << g.epoch
           << ", \"sessions\": " << g.sessions
           << ", \"sessions_free\": " << g.sessions_free
           << ", \"reads_served\": " << g.reads_served
           << ", \"mutations_applied\": " << g.mutations_applied
           << ", \"epochs_live\": " << g.epochs_live
           << ", \"num_vertices\": " << g.shape.num_vertices
           << ", \"num_edges\": " << g.shape.num_edges
           << ", \"directed\": " << (g.shape.directed ? "true" : "false")
           << ", \"memo_entries\": " << g.memo.entries
           << ", \"memo_capacity\": " << g.memo.capacity
           << ", \"memo_hits\": " << g.memo.hits
           << ", \"memo_inserts\": " << g.memo.inserts
           << ", \"memo_invalidated\": " << g.memo.invalidated
           << ", \"memo_carry_passes\": " << g.memo.carry_passes << "}";
  }
  result << "], \"queue_depth\": " << server.queue_depth
         << ", \"queue_capacity\": " << options_.queue_capacity
         << ", \"workers\": " << workers_.size()
         << ", \"busy_workers\": " << server.busy_workers
         << ", \"admitted\": " << server.admitted
         << ", \"completed\": " << server.completed
         << ", \"rejected_overload\": " << server.rejected_overload
         << ", \"rejected_deadline\": " << server.rejected_deadline << "}";
  return FormatOkResponse(request, 0, 0.0, result.str());
}

}  // namespace mhbc::serve
