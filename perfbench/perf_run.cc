// perf_run — measures one benchmark workload on inputs written by perf_gen.
//
//   perf_run --workload <name> --inputs <dir> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced it records
// spans around every public call it makes, replays the workload's inputs
// against the lower layers, and prints the per-layer table instead. The
// last stdout line is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every correctness check held, 1 when one failed,
// 2 on bad usage or unreadable inputs.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

/// Every per-layer metric, in table order, with the end-to-end metric it
/// should move and the workloads whose timed phase reaches it. A row the
/// workload does not reach prints as 0 with base 0.
struct LayerRow {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr LayerRow kLayerRows[] = {
    {"graph.ingest_s", "s", "setup_s (all)"},
    {"graph.apply_ms", "ms", "mutate latency (churn)"},
    {"graph.materialize_ms", "ms", "mutate latency (churn)"},
    {"sp.pass_us", "us", "read_p50_ms (cold, churn)"},
    {"sp.sweep_us", "us", "read_p50_ms (cold, churn)"},
    {"sp.edges_per_pass", "count", "read_p50_ms (cold)"},
    {"exact.miss_us", "us", "read_p50_ms (cold)"},
    {"exact.hit_us", "us", "read_p50_ms (churn)"},
    {"exact.invalidate_ms", "ms", "mutate latency (churn)"},
    {"exact.survival_ratio", "ratio", "read_p50_ms (churn)"},
    {"exact.memo_mb", "MB", "peak_rss_mb (churn)"},
    {"centrality.estimate_ms", "ms", "read_p50_ms (cold)"},
    {"centrality.rank_ms", "ms", "read_p50_ms (cold)"},
    {"centrality.passes_per_read", "count", "reads_per_s (all)"},
    {"centrality.memo_hit_ratio", "ratio", "reads_per_s (churn)"},
    {"centrality.apply_delta_ms", "ms", "mutate latency (churn)"},
    {"serve.server_ms", "ms", "read_p50_ms (churn)"},
    {"serve.outside_ms", "ms", "reads_per_s (churn)"},
    {"serve.queue_wait_ms", "ms", "read_p90_ms (churn)"},
    {"serve.parse_us", "us", "reads_per_s (churn)"},
    {"serve.format_us", "us", "reads_per_s (churn)"},
    {"serve.drain_ms", "ms", "mutate, read_p90_ms (churn)"},
    {"serve.mutate_p50_ms", "ms", "churn writes"},
    {"serve.mutate_p90_ms", "ms", "churn writes"},
    {"trace.reads_per_s", "1/s", "traced run's own (all)"},
    {"trace.read_p50_ms", "ms", "traced run's own (all)"},
    {"trace.span_ns", "ns", "cost of one span (all)"},
    {"trace.span_overhead_pct", "%", "span cost share (all)"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perf_run: %s\nusage: perf_run --workload "
               "<cold-estimate|churn-serve> --inputs <dir> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               message);
  return 2;
}

const Metric* Find(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.12g",
                std::isfinite(value) ? value : 0.0);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string inputs_dir;
  perfbench::RunConfig config;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--inputs") {
      inputs_dir = value;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || inputs_dir.empty() || !have_trace ||
      !(config.seconds > 0.0)) {
    return Usage("missing or malformed arguments");
  }
  auto inputs = perfbench::LoadInputs(inputs_dir);
  if (!inputs.ok()) return Usage(inputs.status().ToString().c_str());
  if (inputs.value().workload != workload) {
    return Usage("inputs were generated for another workload");
  }

  std::printf("host: nproc=%u compiler=\"%s\" flags=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::printf("WARNING: %s build; timings are not comparable to Release\n",
                PERFBENCH_BUILD_TYPE);
  }

  perfbench::Outcome out;
  if (workload == "cold-estimate") {
    out = perfbench::RunColdEstimate(inputs.value(), config);
  } else if (workload == "churn-serve") {
    out = perfbench::RunChurnServe(inputs.value(), config);
  } else {
    return Usage(("unknown workload " + workload).c_str());
  }

  std::printf("\n%s, %s run of %.0f s\n", workload.c_str(),
              config.trace ? "traced" : "untraced", config.seconds);
  std::printf("  %-22s %14s %-6s %8s  %s\n", "end-to-end", "value", "unit",
              "base", "measured as");
  for (const Metric& m : out.end_to_end) {
    std::printf("  %-22s %14.6g %-6s %8llu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.base),
                m.source.c_str());
  }

  std::vector<Metric> reported = out.end_to_end;
  if (config.trace) {
    const Metric* p50 = Find(out.end_to_end, "read_p50_ms");
    const Metric* rate = Find(out.end_to_end, "reads_per_s");
    const double span_ns = perfbench::SpanCostNs();
    // Spans per read: read + EstimateMany + RankTargets (cold), read +
    // Server::Call (serve).
    const double spans_per_read = workload == "cold-estimate" ? 3.0 : 2.0;
    out.layers.push_back({"trace.reads_per_s", rate ? rate->value : 0.0,
                          "1/s", rate ? rate->base : 0, "this traced run"});
    out.layers.push_back({"trace.read_p50_ms", p50 ? p50->value : 0.0, "ms",
                          p50 ? p50->base : 0, "this traced run"});
    out.layers.push_back({"trace.span_ns", span_ns, "ns", 200'000,
                          "SpanRecorder Open + Close"});
    out.layers.push_back(
        {"trace.span_overhead_pct",
         p50 && p50->value > 0.0
             ? spans_per_read * span_ns * 1e-6 / p50->value * 100.0
             : 0.0,
         "%", p50 ? p50->base : 0,
         "span cost only: spans per read x span cost / read p50"});
    reported.clear();
    std::printf("\n  %-27s %14s %-6s %8s  %-28s %s\n", "per-layer", "value",
                "unit", "base", "should move", "measured at");
    for (const LayerRow& row : kLayerRows) {
      const Metric* found = Find(out.layers, row.name);
      Metric metric = found != nullptr
                          ? *found
                          : Metric{row.name, 0.0, row.unit, 0,
                                   "not on this workload's path"};
      metric.unit = row.unit;
      std::printf("  %-27s %14.6g %-6s %8llu  %-28s %s\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.base), row.moves,
                  metric.source.c_str());
      reported.push_back(metric);
    }
    std::printf("\n  %-24s %10s %14s %14s\n", "span", "count", "total_s",
                "self_s");
    for (const perfbench::SpanSummary& span : out.spans) {
      std::printf("  %-24s %10llu %14.6f %14.6f\n", span.name.c_str(),
                  static_cast<unsigned long long>(span.count), span.total_s,
                  span.self_s);
    }
    std::printf(
        "\n  The measured tracing overhead is trace.reads_per_s and\n"
        "  trace.read_p50_ms against an untraced run of the same seed. It\n"
        "  covers the spans and, on churn-serve, the traced run's queue\n"
        "  polling (Server::Stats every ms, under the server mutex);\n"
        "  trace.span_overhead_pct models the spans alone.\n");
  }
  for (const std::string& note : out.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& error : out.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }

  const bool correct = out.errors.empty() && out.failed == 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            JsonNumber(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
