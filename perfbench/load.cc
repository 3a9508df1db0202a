// The closed-loop load generator of churn-serve: kClients client
// threads send estimate requests through Server::Call back to back, each
// blocking for its reply as a remote caller would, while the calling
// thread sends the delta chain as mutates, paced by the completed-read
// count.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kQueueCapacity = 64;

double ResponseElapsedMs(const mhbc::serve::ServeResponse& response) {
  const mhbc::serve::JsonValue* elapsed = response.body.Find("elapsed_ms");
  return elapsed != nullptr && elapsed->is_number() ? elapsed->number_value
                                                    : 0.0;
}

/// State the clients and the mutator share during a phase.
struct Pacing {
  // NOLINTNEXTLINE(mhbc-raw-concurrency): client threads share the counts
  std::mutex mu;
  // NOLINTNEXTLINE(mhbc-raw-concurrency): wakes the mutator on a read
  std::condition_variable cv;
  std::uint64_t completed = 0;  ///< reads completed (ok or not)
  std::size_t clients_running = kClients;
};

}  // namespace

const char kGraphName[] = "g";

mhbc::Status AddCatalog(const mhbc::CsrGraph& graph, ServeStack* stack) {
  stack->server.reset();
  stack->catalog = std::make_unique<mhbc::serve::GraphCatalog>();
  return stack->catalog->AddGraph(kGraphName, graph, mhbc::EngineOptions(),
                                  kSessions);
}

void StartServer(ServeStack* stack) {
  mhbc::serve::ServerOptions options;
  options.workers = kWorkers;
  options.queue_capacity = kQueueCapacity;
  stack->server =
      std::make_unique<mhbc::serve::Server>(stack->catalog.get(), options);
}

std::vector<mhbc::VertexId> RequestTargets(mhbc::VertexId n,
                                           std::uint64_t seed) {
  // NOLINTNEXTLINE(mhbc-banned-nondeterminism): the request seed flows in
  mhbc::Rng rng(seed ^ 0x7461726765747321ULL);
  std::vector<mhbc::VertexId> targets;
  while (targets.size() < 3) {
    const mhbc::VertexId v = rng.NextVertex(n);
    if (std::find(targets.begin(), targets.end(), v) == targets.end()) {
      targets.push_back(v);
    }
  }
  return targets;
}

std::string EstimateLine(std::uint64_t id,
                         const std::vector<mhbc::VertexId>& targets,
                         std::uint64_t samples, std::uint64_t seed) {
  std::string line = "{\"id\": " + std::to_string(id) +
                     ", \"method\": \"estimate\", \"graph\": \"" + kGraphName +
                     "\", \"estimator\": \"mh\", \"vertices\": [";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) line += ", ";
    line += std::to_string(targets[i]);
  }
  line += "], \"samples\": " + std::to_string(samples) +
          ", \"seed\": " + std::to_string(seed) + "}";
  return line;
}

PhaseResult RunPhase(mhbc::serve::Server& server, const PhasePlan& plan,
                     std::vector<SpanRecorder>* recorders) {
  PhaseResult result;
  Pacing pacing;
  std::vector<std::vector<Completion>> completions(kClients);
  std::vector<std::vector<Read>> samples(kClients);
  std::vector<std::uint64_t> failures(kClients, 0);
  const std::uint64_t admitted_before = server.Stats().admitted;
  const mhbc::WallTimer phase;
  {
    // Declared after everything the clients use, so they are joined first.
    // NOLINTNEXTLINE(mhbc-raw-concurrency): callers, as connection threads
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        SpanRecorder& spans = (*recorders)[c + 1];
        for (std::uint64_t i = 0; phase.ElapsedSeconds() < plan.seconds; ++i) {
          const std::uint64_t id = (std::uint64_t{c + 1} << 40) + i;
          Read read;
          read.seed = plan.seed + id;
          read.targets = RequestTargets(plan.n, read.seed);
          const std::string line =
              EstimateLine(id, read.targets, plan.samples, read.seed);
          const ScopedSpan read_span(&spans, "read", -1, id);
          const mhbc::WallTimer timer;
          std::string response_line;
          {
            const ScopedSpan call(&spans, "Server::Call", read_span.index(),
                                  id);
            response_line = server.Call(line);
          }
          Completion done;
          done.latency_ms = timer.ElapsedSeconds() * 1e3;
          done.done_s = phase.ElapsedSeconds();
          auto response = mhbc::serve::ParseServeResponse(response_line);
          if (response.ok() && response.value().ok &&
              response.value().id == id &&
              response.value().reports.size() == read.targets.size()) {
            done.server_ms = ResponseElapsedMs(response.value());
            completions[c].push_back(done);
            if (i % kSampleEvery == 0) {
              read.epoch = response.value().epoch;
              read.reports = std::move(response.value().reports);
              samples[c].push_back(std::move(read));
            }
          } else {
            ++failures[c];
          }
          {
            // NOLINTNEXTLINE(mhbc-raw-concurrency): see Pacing
            const std::lock_guard<std::mutex> lock(pacing.mu);
            ++pacing.completed;
          }
          pacing.cv.notify_all();
        }
        {
          // NOLINTNEXTLINE(mhbc-raw-concurrency): see Pacing
          const std::lock_guard<std::mutex> lock(pacing.mu);
          --pacing.clients_running;
        }
        pacing.cv.notify_all();
      });
    }

    // The calling thread is the mutator and, when polling, samples the
    // admission queue depth every millisecond. Between edits it sleeps on
    // the pacing condition variable, so it takes no core from the clients
    // and workers.
    SpanRecorder& spans = (*recorders)[0];
    const std::size_t chain = plan.scripts->size();
    std::size_t next = 0;
    double depth_sum = 0.0;
    for (;;) {
      // NOLINTNEXTLINE(mhbc-raw-concurrency): see Pacing
      std::unique_lock<std::mutex> lock(pacing.mu);
      const auto mutate_due = [&] {
        return next < chain && pacing.completed >= (next + 1) * kReadsPerMutate;
      };
      const auto woken = [&] {
        return pacing.clients_running == 0 || mutate_due();
      };
      if (plan.poll_queue) {
        pacing.cv.wait_for(lock, std::chrono::milliseconds(1), woken);
      } else {
        pacing.cv.wait(lock, woken);
      }
      if (pacing.clients_running == 0) break;
      const bool due = mutate_due();
      lock.unlock();
      if (plan.poll_queue) {
        depth_sum += static_cast<double>(server.Stats().queue_depth);
        ++result.polls;
      }
      if (!due) continue;
      const std::uint64_t id = 1'000'000'000 + next;
      const ScopedSpan mutate_span(&spans, "mutate", -1, id);
      const mhbc::WallTimer timer;
      std::string response_line;
      {
        const ScopedSpan call(&spans, "Server::Call", mutate_span.index(), id);
        response_line = server.Call(
            "{\"id\": " + std::to_string(id) +
            ", \"method\": \"mutate\", \"graph\": \"" + kGraphName +
            "\", \"edits\": " + mhbc::serve::JsonQuote((*plan.scripts)[next]) +
            "}");
      }
      const double latency_ms = timer.ElapsedSeconds() * 1e3;
      auto response = mhbc::serve::ParseServeResponse(response_line);
      if (response.ok() && response.value().ok && response.value().id == id) {
        result.mutates.push_back(Mutate{response.value().epoch, latency_ms,
                                        ResponseElapsedMs(response.value())});
      } else {
        ++result.failed;
        result.errors.push_back("mutate " + std::to_string(next) +
                                " failed: " + response_line);
      }
      ++next;
    }
    result.chain_exhausted = chain > 0 && next == chain;
    const double wall_s = phase.ElapsedSeconds();
    const double admitted =
        static_cast<double>(server.Stats().admitted - admitted_before);
    // Little's law: mean queue length = admission rate x mean queue wait.
    if (result.polls > 0 && admitted > 0.0) {
      result.queue_wait_ms = depth_sum / static_cast<double>(result.polls) /
                             (admitted / wall_s) * 1e3;
    }
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    result.failed += failures[c];
    result.completions.insert(result.completions.end(),
                              completions[c].begin(), completions[c].end());
    for (Read& read : samples[c]) result.samples.push_back(std::move(read));
  }
  return result;
}

std::vector<Metric> ServeLayers(const PhaseResult& phase,
                                double apply_delta_ms) {
  std::vector<double> server_ms;
  std::vector<double> outside_ms;
  for (const Completion& read : phase.completions) {
    server_ms.push_back(read.server_ms);
    outside_ms.push_back(read.latency_ms - read.server_ms);
  }
  const auto reads = static_cast<std::uint64_t>(phase.completions.size());
  std::vector<Metric> out = {
      {"serve.server_ms", Mean(server_ms), "ms", reads,
       "response elapsed_ms (from admission)"},
      {"serve.queue_wait_ms", phase.queue_wait_ms, "ms", phase.polls,
       "Little's law: polled queue_depth / admitted rate"},
      {"serve.outside_ms", Mean(outside_ms), "ms", reads,
       "Call latency - elapsed_ms"},
  };
  std::vector<double> mutate_ms;
  std::vector<double> elapsed_ms;
  for (const Mutate& mutate : phase.mutates) {
    mutate_ms.push_back(mutate.latency_ms);
    elapsed_ms.push_back(mutate.server_ms);
  }
  const auto mutates = static_cast<std::uint64_t>(phase.mutates.size());
  out.push_back({"serve.mutate_p50_ms", Quantile(mutate_ms, 0.5), "ms",
                 mutates, "mutate Call latency"});
  out.push_back({"serve.mutate_p90_ms", Quantile(mutate_ms, 0.9), "ms",
                 mutates, "mutate Call latency"});
  out.push_back({"serve.drain_ms",
                 Mean(elapsed_ms) -
                     static_cast<double>(kSessions) * apply_delta_ms,
                 "ms", mutates,
                 "mutate elapsed_ms - sessions x centrality.apply_delta_ms"});
  return out;
}

}  // namespace perfbench
