// E23 — serving-stack load generation: latency/throughput of mhbc_serve's
// in-process core under concurrent estimate traffic with interleaved
// mutations.
//
// The serving layer (src/serve/) is a GraphCatalog of warm engine-session
// pools behind a bounded worker pool. A mutation publishes the next graph
// epoch (one graph and one dependency memo) with a pointer swap, without
// waiting for reads in flight; each read runs on the epoch it leased and
// names it in its response. This harness drives that machine the
// way a daemon would be driven — N client threads issuing estimate
// requests over the NDJSON protocol (Server::Call, the same entry point
// the TCP loop uses), one mutator thread streaming a pre-generated delta
// chain through `mutate` — and reports:
//
//   p50/p99 request latency, sustained QPS, mutation count, and the
//   admission counters (overload / deadline rejections).
//
// It is also a CORRECTNESS GATE, not just a stopwatch: every response is
// checked for protocol health (parseable, expected shape, plausible
// epoch), and a deterministic sample of responses is replayed against a
// cold engine built on that epoch's graph — the statistical report
// fields must match bit for bit (the catalog's epoch contract,
// src/serve/catalog.h). The process exits nonzero on any protocol or
// epoch error, so CI wiring this harness in gates on them.
//
//   bench_e23_serve [--smoke] [dataset ...]
//     default dataset: email-like-1k
//     --smoke: caveman-36, fewer requests (the CI configuration)
//
// Emits BENCH_e23.json next to the markdown output (bench_common.h).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "centrality/engine.h"
#include "datasets/registry.h"
#include "graph/dynamic_graph.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using mhbc::CsrGraph;
using mhbc::EstimateReport;
using mhbc::GraphDelta;
using mhbc::GraphEdit;
using mhbc::VertexId;
using mhbc::serve::GraphCatalog;
using mhbc::serve::ParseServeResponse;
using mhbc::serve::Server;
using mhbc::serve::ServerOptions;
using mhbc::serve::ServeResponse;
using mhbc::serve::WireReport;

struct LoadConfig {
  std::size_t clients = 4;
  std::size_t requests_per_client = 200;
  std::size_t mutations = 8;
  std::size_t edits_per_mutation = 3;
  std::uint64_t samples = 500;
  std::size_t replay_cap = 24;  // cold-engine bit-identity replays
};

struct Observation {
  std::uint64_t epoch = 0;
  std::uint64_t seed = 0;
  double latency_ms = 0.0;
  std::vector<WireReport> reports;
};

struct LoadResult {
  std::vector<Observation> observations;
  std::vector<std::string> mutate_lines;
  double wall_seconds = 0.0;
  std::size_t protocol_errors = 0;
  mhbc::serve::ServerStats server_stats;
};

std::string DeltaToText(const GraphDelta& delta) {
  std::string text;
  for (const GraphEdit& edit : delta.edits()) {
    switch (edit.kind) {
      case GraphEdit::Kind::kAddEdge:
        text += "add ";
        text += std::to_string(edit.u);
        text += ' ';
        text += std::to_string(edit.v);
        if (edit.weight != 1.0) {
          text += ' ';
          text += std::to_string(edit.weight);
        }
        break;
      case GraphEdit::Kind::kRemoveEdge:
        text += "remove ";
        text += std::to_string(edit.u);
        text += ' ';
        text += std::to_string(edit.v);
        break;
      case GraphEdit::Kind::kAddVertex:
        text += "addvertex";
        break;
    }
    text += "\\n";
  }
  return text;
}

std::string EstimateLine(const std::string& graph,
                         const std::vector<VertexId>& targets,
                         std::uint64_t samples, std::uint64_t seed) {
  std::string vertices;
  for (const VertexId v : targets) {
    if (!vertices.empty()) vertices += ", ";
    vertices += std::to_string(v);
  }
  return "{\"id\": " + std::to_string(seed) +
         ", \"method\": \"estimate\", \"graph\": \"" + graph +
         "\", \"vertices\": [" + vertices +
         "], \"samples\": " + std::to_string(samples) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

/// Drives the server with `config.clients` reader threads plus one
/// mutator thread that spaces `config.mutations` mutations across the
/// run by watching the completed-request counter.
LoadResult RunLoad(Server& server, const std::string& graph_name,
                   const std::vector<VertexId>& targets,
                   const std::vector<GraphDelta>& deltas,
                   const LoadConfig& config) {
  LoadResult result;
  std::vector<std::vector<Observation>> per_thread(config.clients);
  std::vector<std::size_t> errors_per_thread(config.clients, 0);
  std::atomic<bool> clients_done{false};

  mhbc::WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(config.clients + 1);
  for (std::size_t t = 0; t < config.clients; ++t) {
    threads.emplace_back([&, t] {
      mhbc::WallTimer latency;
      for (std::size_t i = 0; i < config.requests_per_client; ++i) {
        const std::uint64_t seed = 100'000 * (t + 1) + i;
        const std::string line =
            EstimateLine(graph_name, targets, config.samples, seed);
        latency.Reset();
        const std::string response_line = server.Call(line);
        const double latency_ms = latency.ElapsedSeconds() * 1000.0;
        auto response = ParseServeResponse(response_line);
        if (!response.ok() || !response.value().ok ||
            response.value().reports.size() != targets.size()) {
          ++errors_per_thread[t];
          continue;
        }
        per_thread[t].push_back(Observation{response.value().epoch, seed,
                                            latency_ms,
                                            response.value().reports});
      }
    });
  }
  threads.emplace_back([&] {
    // One mutation roughly every 1/(M+1) of the run, measured in
    // completed requests so the pacing needs no wall clock.
    const std::size_t total = config.clients * config.requests_per_client;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      const std::size_t threshold = (i + 1) * total / (deltas.size() + 1);
      while (server.Stats().completed < threshold &&
             !clients_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      result.mutate_lines.push_back(server.Call(
          "{\"id\": " + std::to_string(1'000'000 + i) +
          ", \"method\": \"mutate\", \"graph\": \"" + graph_name +
          "\", \"edits\": \"" + DeltaToText(deltas[i]) + "\"}"));
    }
  });
  for (std::size_t t = 0; t < config.clients; ++t) threads[t].join();
  clients_done.store(true, std::memory_order_release);
  threads.back().join();
  result.wall_seconds = wall.ElapsedSeconds();

  for (std::size_t t = 0; t < config.clients; ++t) {
    result.protocol_errors += errors_per_thread[t];
    result.observations.insert(result.observations.end(),
                               per_thread[t].begin(), per_thread[t].end());
  }
  result.server_stats = server.Stats();
  return result;
}

double PercentileMs(std::vector<double> sorted_latencies, double q) {
  if (sorted_latencies.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted_latencies.size() - 1));
  return sorted_latencies[index];
}

bool ReportsIdentical(const WireReport& wire, const EstimateReport& cold) {
  return wire.value == cold.value && wire.std_error == cold.std_error &&
         wire.ci_half_width == cold.ci_half_width && wire.ess == cold.ess &&
         wire.acceptance_rate == cold.acceptance_rate &&
         wire.samples_used == cold.samples_used &&
         wire.converged == cold.converged;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<std::string> datasets;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      datasets.push_back(argv[i]);
    }
  }
  if (datasets.empty()) {
    datasets = smoke ? std::vector<std::string>{"caveman-36"}
                     : std::vector<std::string>{"email-like-1k"};
  }
  LoadConfig config;
  if (smoke) {
    config.requests_per_client = 25;
    config.mutations = 3;
    config.samples = 200;
    config.replay_cap = 12;
  }

  mhbc::bench::Banner("E23", "serving-stack load: latency/QPS under "
                             "concurrent reads with interleaved mutations");
  mhbc::bench::JsonReport report("e23");
  report.AddMeta("smoke", smoke ? "true" : "false");
  report.AddMeta("clients", std::to_string(config.clients));
  report.AddMeta("requests_per_client",
                 std::to_string(config.requests_per_client));
  report.AddMeta("samples_per_request", std::to_string(config.samples));

  mhbc::Table table({"dataset", "clients", "requests", "qps", "p50_ms",
                     "p99_ms", "mutations", "overload", "proto_err",
                     "epoch_err", "replayed"});
  std::size_t total_protocol_errors = 0;
  std::size_t total_epoch_errors = 0;

  for (const std::string& name : datasets) {
    auto graph = mhbc::MakeDataset(name);
    if (!graph.ok()) {
      std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
      return 3;
    }

    // The delta chain and its per-epoch snapshots, pre-generated so the
    // replay gate can rebuild the exact graph any response was served on.
    std::vector<GraphDelta> deltas;
    std::vector<CsrGraph> snapshots;
    {
      mhbc::DynamicGraph dyn(graph.value());
      snapshots.push_back(dyn.Csr());
      for (std::size_t i = 0; i < config.mutations; ++i) {
        const GraphDelta delta = mhbc::MakeRandomEditScript(
            dyn.Csr(), config.edits_per_mutation, 0xe23 + i);
        if (!dyn.Apply(delta).ok()) {
          std::fprintf(stderr, "error: delta chain generation failed\n");
          return 3;
        }
        deltas.push_back(delta);
        snapshots.push_back(dyn.Csr());
      }
    }
    const mhbc::bench::TargetSet targets = mhbc::bench::PickTargets(
        snapshots.front());
    const std::vector<VertexId> vertices = {targets.hub, targets.median,
                                            targets.peripheral};

    const mhbc::EngineOptions engine_options;
    GraphCatalog catalog;
    if (!catalog.AddGraph(name, graph.value(), engine_options, config.clients)
             .ok()) {
      std::fprintf(stderr, "error: catalog setup failed\n");
      return 3;
    }
    ServerOptions server_options;
    server_options.workers = config.clients;
    server_options.queue_capacity = 4 * config.clients;
    Server server(&catalog, server_options);

    LoadResult load = RunLoad(server, name, vertices, deltas, config);

    // --- Gate 1: protocol health of every response -----------------------
    std::size_t epoch_errors = 0;
    for (const Observation& observed : load.observations) {
      if (observed.epoch > deltas.size()) ++epoch_errors;
    }
    std::uint64_t expected_epoch = 1;
    for (const std::string& line : load.mutate_lines) {
      auto response = ParseServeResponse(line);
      if (!response.ok() || !response.value().ok ||
          response.value().epoch != expected_epoch) {
        ++epoch_errors;
      }
      ++expected_epoch;
    }

    // --- Gate 2: cold-engine bit-identity replay (sampled) ---------------
    std::size_t replayed = 0;
    const std::size_t stride =
        std::max<std::size_t>(1, load.observations.size() / config.replay_cap);
    for (std::size_t i = 0; i < load.observations.size(); i += stride) {
      const Observation& observed = load.observations[i];
      if (observed.epoch > deltas.size()) continue;  // already counted
      mhbc::BetweennessEngine cold(snapshots[observed.epoch], engine_options);
      mhbc::EstimateRequest request;
      request.samples = config.samples;
      request.seed = observed.seed;
      auto expected = cold.EstimateMany(vertices, request);
      if (!expected.ok() || expected.value().size() != vertices.size()) {
        ++epoch_errors;
        continue;
      }
      for (std::size_t v = 0; v < vertices.size(); ++v) {
        if (!ReportsIdentical(observed.reports[v], expected.value()[v])) {
          ++epoch_errors;
        }
      }
      ++replayed;
    }

    std::vector<double> latencies;
    latencies.reserve(load.observations.size());
    for (const Observation& observed : load.observations) {
      latencies.push_back(observed.latency_ms);
    }
    std::sort(latencies.begin(), latencies.end());
    const double qps =
        load.wall_seconds > 0.0
            ? static_cast<double>(load.observations.size()) / load.wall_seconds
            : 0.0;
    table.AddRow({name, std::to_string(config.clients),
                  std::to_string(load.observations.size()),
                  mhbc::FormatDouble(qps, 1),
                  mhbc::FormatDouble(PercentileMs(latencies, 0.50), 3),
                  mhbc::FormatDouble(PercentileMs(latencies, 0.99), 3),
                  std::to_string(load.mutate_lines.size()),
                  std::to_string(load.server_stats.rejected_overload),
                  std::to_string(load.protocol_errors),
                  std::to_string(epoch_errors), std::to_string(replayed)});
    total_protocol_errors += load.protocol_errors;
    total_epoch_errors += epoch_errors;
  }

  mhbc::bench::PrintTable("E23 — serving latency/QPS (epoch gate)", table);
  report.AddTable("serve_load", table);
  report.AddMeta("protocol_errors", std::to_string(total_protocol_errors));
  report.AddMeta("epoch_errors", std::to_string(total_epoch_errors));
  const std::string written = report.Write();
  if (!written.empty()) std::printf("json: %s\n", written.c_str());

  if (total_protocol_errors != 0 || total_epoch_errors != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu protocol error(s), %zu epoch error(s)\n",
                 total_protocol_errors, total_epoch_errors);
    return 1;
  }
  std::printf("gate: zero protocol errors, zero epoch errors\n");
  return 0;
}
