// E20 — SPD kernel shoot-out: classic top-down vs direction-optimizing
// hybrid traversal (sp/bfs_spd.h) across the registry graphs.
//
// For each dataset the harness runs the same spread source set through
// both kernels and reports
//
//   * passes/sec          — forward SPD passes only,
//   * fused passes/sec    — pass + dependency accumulation (the true
//                           per-sample unit every estimator pays),
//   * sweep us/pass       — the dependency accumulation alone, after a
//                           hybrid pass (both kernels record the same
//                           edge slices, so the sweep is kernel-blind),
//   * edges examined      — per pass, per kernel (hardware-independent),
//   * direction switches  — per pass (hybrid),
//   * det                 — dist/sigma/order bit-identity check between
//                           the kernels ("!DET" must never appear).
//
//   bench_e20_spd_kernel [sources_per_graph] [--smoke]
//                        [--alpha=<a>] [--beta=<b>]
//
// Defaults: 64 sources per graph and the SpdOptions defaults; --smoke
// drops to 8 sources (the CI artifact run); --alpha/--beta override the
// hybrid kernel's switch thresholds (this is the harness the defaults
// were tuned with). Timing loops are repeated so the fastest-of-3 wall
// clock is reported; the JSON twin lands in BENCH_e20.json.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "datasets/registry.h"
#include "graph/generators.h"
#include "sp/bfs_spd.h"
#include "sp/dependency.h"
#include "util/timer.h"

namespace {

using namespace mhbc;

std::vector<VertexId> SpreadSources(VertexId n, std::size_t count) {
  std::vector<VertexId> sources;
  sources.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<VertexId>(
        (static_cast<std::uint64_t>(n) * i) / count));
  }
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

struct KernelRun {
  double pass_seconds = 0.0;
  double fused_seconds = 0.0;
  double sweep_seconds = 0.0;
  std::uint64_t edges_examined = 0;
  std::uint64_t direction_switches = 0;
  std::uint64_t bottom_up_levels = 0;
};

KernelRun TimeKernel(const CsrGraph& graph, const SpdOptions& options,
                     const std::vector<VertexId>& sources) {
  KernelRun run;
  BfsSpd bfs(graph, options);
  DependencyAccumulator accumulator(graph);
  constexpr int kRepeats = 3;
  double best_pass = -1.0;
  double best_fused = -1.0;
  double best_sweep = -1.0;
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer pass_timer;
    for (VertexId s : sources) bfs.Run(s);
    const double pass_seconds = pass_timer.ElapsedSeconds();
    if (best_pass < 0.0 || pass_seconds < best_pass) best_pass = pass_seconds;

    WallTimer fused_timer;
    for (VertexId s : sources) {
      bfs.Run(s);
      accumulator.Accumulate(bfs);
    }
    const double fused_seconds = fused_timer.ElapsedSeconds();
    if (best_fused < 0.0 || fused_seconds < best_fused) {
      best_fused = fused_seconds;
    }

    double sweep_seconds = 0.0;
    for (VertexId s : sources) {
      bfs.Run(s);
      WallTimer sweep_timer;
      accumulator.Accumulate(bfs);
      sweep_seconds += sweep_timer.ElapsedSeconds();
    }
    if (best_sweep < 0.0 || sweep_seconds < best_sweep) {
      best_sweep = sweep_seconds;
    }
  }
  run.pass_seconds = best_pass;
  run.fused_seconds = best_fused;
  run.sweep_seconds = best_sweep;
  // Work counters for exactly one sweep over the source set.
  BfsSpd counter(graph, options);
  for (VertexId s : sources) counter.Run(s);
  run.edges_examined = counter.total_stats().edges_examined;
  run.direction_switches = counter.total_stats().direction_switches;
  run.bottom_up_levels = counter.total_stats().bottom_up_levels;
  return run;
}

/// dist/sigma/order bit-identity between the kernels over every source,
/// at the same alpha/beta the timed runs used.
bool KernelsAgree(const CsrGraph& graph, const SpdOptions& classic,
                  const SpdOptions& hybrid,
                  const std::vector<VertexId>& sources) {
  BfsSpd a(graph, classic);
  BfsSpd b(graph, hybrid);
  DependencyAccumulator acc_a(graph);
  DependencyAccumulator acc_b(graph);
  for (VertexId s : sources) {
    a.Run(s);
    b.Run(s);
    if (a.dag().dist != b.dag().dist) return false;
    if (a.dag().sigma != b.dag().sigma) return false;
    if (a.dag().order != b.dag().order) return false;
    if (acc_a.Accumulate(a) != acc_b.Accumulate(b)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("E20", "SPD kernel: classic top-down vs hybrid "
                       "direction-optimizing");
  std::size_t sources_per_graph = 64;
  bool smoke = false;
  SpdOptions defaults;  // hybrid kernel, default alpha/beta
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--alpha=", 8) == 0) {
      defaults.alpha = std::strtod(argv[i] + 8, nullptr);
    } else if (std::strncmp(argv[i], "--beta=", 7) == 0) {
      defaults.beta = std::strtod(argv[i] + 7, nullptr);
    } else {
      char* end = nullptr;
      sources_per_graph = std::strtoull(argv[i], &end, 10);
      if (argv[i][0] == '-' || end == argv[i] || *end != '\0' ||
          sources_per_graph == 0) {
        std::fprintf(stderr,
                     "unknown argument '%s'\nusage: %s [sources_per_graph] "
                     "[--smoke] [--alpha=<a>] [--beta=<b>]\n",
                     argv[i], argv[0]);
        return 2;
      }
    }
  }
  if (smoke) sources_per_graph = std::min<std::size_t>(sources_per_graph, 8);
  bench::JsonReport json("e20");
  json.AddMeta("sources_per_graph", std::to_string(sources_per_graph));
  json.AddMeta("smoke", smoke ? "true" : "false");
  json.AddMeta("alpha", FormatDouble(defaults.alpha, 2));
  json.AddMeta("beta", FormatDouble(defaults.beta, 2));

  bool all_deterministic = true;
  Table table({"graph", "n", "m", "classic p/s", "hybrid p/s", "speedup",
               "fused speedup", "sweep us/pass", "classic edges/pass",
               "hybrid edges/pass", "edge ratio", "bu levels/pass",
               "switches/pass", "det"});

  // Registry graphs (undirected) plus a directed stand-in: the hybrid
  // kernel's bottom-up levels scan in-edges on directed graphs, so the
  // shoot-out (and the bit-identity gate) must cover that path too.
  std::vector<std::pair<std::string, CsrGraph>> cases;
  for (const DatasetSpec& spec : DatasetRegistry()) {
    cases.emplace_back(spec.name, spec.make());
  }
  cases.emplace_back("directed-lcg",
                     MakeRandomDirected(smoke ? 2000 : 20000,
                                        smoke ? 12000 : 120000, 0xE20D));

  for (const auto& [name, graph] : cases) {
    const std::vector<VertexId> sources =
        SpreadSources(graph.num_vertices(), sources_per_graph);

    SpdOptions classic = defaults;
    classic.kernel = SpdKernel::kClassic;
    SpdOptions hybrid = defaults;
    hybrid.kernel = SpdKernel::kHybrid;

    const KernelRun classic_run = TimeKernel(graph, classic, sources);
    const KernelRun hybrid_run = TimeKernel(graph, hybrid, sources);
    const bool det = KernelsAgree(graph, classic, hybrid, sources);
    all_deterministic = all_deterministic && det;

    const double passes = static_cast<double>(sources.size());
    const double classic_pps = passes / classic_run.pass_seconds;
    const double hybrid_pps = passes / hybrid_run.pass_seconds;
    table.AddRow(
        {name, FormatCount(graph.num_vertices()),
         FormatCount(graph.num_edges()), FormatDouble(classic_pps, 0),
         FormatDouble(hybrid_pps, 0),
         FormatDouble(hybrid_pps / classic_pps, 2) + "x",
         FormatDouble(classic_run.fused_seconds / hybrid_run.fused_seconds,
                      2) +
             "x",
         FormatDouble(hybrid_run.sweep_seconds * 1e6 / passes, 1),
         FormatDouble(static_cast<double>(classic_run.edges_examined) / passes,
                      0),
         FormatDouble(static_cast<double>(hybrid_run.edges_examined) / passes,
                      0),
         FormatDouble(static_cast<double>(classic_run.edges_examined) /
                          static_cast<double>(hybrid_run.edges_examined),
                      2) +
             "x",
         FormatDouble(static_cast<double>(hybrid_run.bottom_up_levels) /
                          passes,
                      2),
         FormatDouble(static_cast<double>(hybrid_run.direction_switches) /
                          passes,
                      2),
         det ? "ok" : "!DET"});
  }

  bench::EmitTable(
      &json,
      "E20: classic vs hybrid SPD kernel (passes/sec, sweep us/pass after "
      "a hybrid pass, edges examined; !DET flags a kernel-equivalence "
      "violation — must never appear)",
      table);
  const std::string written = json.Write();
  if (!written.empty()) std::printf("wrote %s\n", written.c_str());
  if (!all_deterministic) {
    // Fail the run (and the CI release-bench job): a !DET row means the
    // optimized build broke hybrid/classic bit-identity.
    std::fprintf(stderr, "FAIL: kernel-equivalence violation (!DET)\n");
    return 1;
  }
  return 0;
}
