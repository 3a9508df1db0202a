// E22 — intra-pass scaling: frontier-parallel SPD passes (sp/bfs_spd.h,
// SpdOptions::num_threads) at 1/2/4/8 threads, for both the classic
// top-down and the hybrid direction-optimizing kernel, across the
// registry graphs.
//
// For each (graph, kernel, threads) row the harness reports
//
//   * passes/sec          — forward SPD passes only,
//   * fused passes/sec    — pass + level-parallel dependency accumulation
//                           (the true per-sample unit every estimator
//                           pays),
//   * speedup / fused x   — against the 1-thread row of the same kernel,
//   * det                 — bit-identity gate against the 1-thread run:
//                           dist/sigma/order/level_offsets and
//                           dependency vectors must match exactly, and
//                           every level edge slice must hold the same
//                           edges ("!DET" must never appear; the process
//                           exits 1 if it does).
//
//   bench_e22_intra_pass [sources_per_graph] [--smoke] [--grain=<g>]
//
// Defaults: 64 sources per graph, the shipped parallel_grain; --smoke
// drops to 8 sources (the CI artifact run); --grain overrides the
// per-level parallel cutoff (0 forces every level through the sharded
// steps — the worst case for overhead, the best case for coverage).
// Timing loops report the fastest-of-3 wall clock; the JSON twin lands
// in BENCH_e22.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "datasets/registry.h"
#include "sp/bfs_spd.h"
#include "sp/dependency.h"
#include "util/timer.h"

namespace {

using namespace mhbc;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

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

struct ThreadRun {
  double pass_seconds = 0.0;
  double fused_seconds = 0.0;
};

ThreadRun TimeAtThreads(const CsrGraph& graph, const SpdOptions& options,
                        const std::vector<VertexId>& sources) {
  ThreadRun run;
  BfsSpd bfs(graph, options);
  // The accumulator borrows the pass engine's pool, exactly as the
  // oracle/Brandes wiring does, so "fused" times the shipped composition.
  DependencyAccumulator accumulator(graph, bfs.intra_pool(),
                                    options.parallel_grain);
  constexpr int kRepeats = 3;
  double best_pass = -1.0;
  double best_fused = -1.0;
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
  }
  run.pass_seconds = best_pass;
  run.fused_seconds = best_fused;
  return run;
}

/// Level l's SPD edges as (child, parent) pairs, sorted. A slice promises
/// only that each parent's children ascend — the sweep's fold order — so
/// slices are compared as sets.
std::vector<std::vector<std::pair<VertexId, VertexId>>> CanonicalEdgeSlices(
    const ShortestPathDag& dag) {
  std::vector<std::vector<std::pair<VertexId, VertexId>>> slices(
      dag.num_levels());
  for (std::size_t l = 0; l < dag.num_levels(); ++l) {
    for (const SpdEdge& edge : dag.level_edges(l)) {
      slices[l].emplace_back(edge.child, edge.parent);
    }
    std::sort(slices[l].begin(), slices[l].end());
  }
  return slices;
}

/// Per-row bit-identity gate: the `threads`-wide engine must reproduce
/// the 1-thread engine exactly on every source — DAG (dist, sigma,
/// canonical order, level offsets), level edge slices (as sets), and
/// dependency vectors.
bool MatchesSequential(const CsrGraph& graph, const SpdOptions& options,
                       const std::vector<VertexId>& sources) {
  SpdOptions sequential_options = options;
  sequential_options.num_threads = 1;
  BfsSpd sequential(graph, sequential_options);
  BfsSpd parallel(graph, options);
  DependencyAccumulator sequential_acc(graph);
  DependencyAccumulator parallel_acc(graph, parallel.intra_pool(),
                                     options.parallel_grain);
  for (VertexId s : sources) {
    sequential.Run(s);
    parallel.Run(s);
    const ShortestPathDag& a = sequential.dag();
    const ShortestPathDag& b = parallel.dag();
    if (a.dist != b.dist || a.sigma != b.sigma || a.order != b.order ||
        a.level_offsets != b.level_offsets) {
      return false;
    }
    if (a.edge_offsets != b.edge_offsets ||
        CanonicalEdgeSlices(a) != CanonicalEdgeSlices(b)) {
      return false;
    }
    if (sequential_acc.Accumulate(sequential) !=
        parallel_acc.Accumulate(parallel)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("E22", "intra-pass scaling: frontier-parallel SPD passes "
                       "at 1/2/4/8 threads");
  std::size_t sources_per_graph = 64;
  bool smoke = false;
  SpdOptions defaults;  // shipped kernel defaults + parallel_grain
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--grain=", 8) == 0) {
      char* end = nullptr;
      defaults.parallel_grain = std::strtoull(argv[i] + 8, &end, 10);
      if (end == argv[i] + 8 || *end != '\0') {
        std::fprintf(stderr, "bad --grain value '%s'\n", argv[i] + 8);
        return 2;
      }
    } else {
      char* end = nullptr;
      sources_per_graph = std::strtoull(argv[i], &end, 10);
      if (argv[i][0] == '-' || end == argv[i] || *end != '\0' ||
          sources_per_graph == 0) {
        std::fprintf(stderr,
                     "unknown argument '%s'\nusage: %s [sources_per_graph] "
                     "[--smoke] [--grain=<g>]\n",
                     argv[i], argv[0]);
        return 2;
      }
    }
  }
  if (smoke) sources_per_graph = std::min<std::size_t>(sources_per_graph, 8);
  bench::JsonReport json("e22");
  json.AddMeta("sources_per_graph", std::to_string(sources_per_graph));
  json.AddMeta("smoke", smoke ? "true" : "false");
  json.AddMeta("parallel_grain", std::to_string(defaults.parallel_grain));

  bool all_deterministic = true;
  Table table({"graph", "n", "m", "kernel", "threads", "passes/s",
               "fused p/s", "speedup", "fused x", "det"});

  for (const DatasetSpec& spec : DatasetRegistry()) {
    const CsrGraph graph = spec.make();
    const std::vector<VertexId> sources =
        SpreadSources(graph.num_vertices(), sources_per_graph);
    const double passes = static_cast<double>(sources.size());

    for (SpdKernel kernel : {SpdKernel::kClassic, SpdKernel::kHybrid}) {
      SpdOptions options = defaults;
      options.kernel = kernel;
      double base_pps = 0.0;
      double base_fps = 0.0;
      for (unsigned threads : kThreadCounts) {
        options.num_threads = threads;
        const ThreadRun run = TimeAtThreads(graph, options, sources);
        const bool det =
            threads == 1 || MatchesSequential(graph, options, sources);
        all_deterministic = all_deterministic && det;

        const double pps = passes / run.pass_seconds;
        const double fps = passes / run.fused_seconds;
        if (threads == 1) {
          base_pps = pps;
          base_fps = fps;
        }
        table.AddRow({spec.name, FormatCount(graph.num_vertices()),
                      FormatCount(graph.num_edges()),
                      kernel == SpdKernel::kClassic ? "classic" : "hybrid",
                      std::to_string(threads), FormatDouble(pps, 0),
                      FormatDouble(fps, 0),
                      FormatDouble(pps / base_pps, 2) + "x",
                      FormatDouble(fps / base_fps, 2) + "x",
                      det ? "ok" : "!DET"});
      }
    }
  }

  bench::EmitTable(
      &json,
      "E22: intra-pass thread scaling (passes/sec; speedups vs the 1-thread "
      "row of the same kernel; !DET flags a sequential-equivalence "
      "violation — must never appear)",
      table);
  const std::string written = json.Write();
  if (!written.empty()) std::printf("wrote %s\n", written.c_str());
  if (!all_deterministic) {
    // Fail the run (and the CI release-bench job): a !DET row means a
    // parallel pass diverged from the sequential kernel.
    std::fprintf(stderr,
                 "FAIL: intra-pass determinism violation (!DET)\n");
    return 1;
  }
  return 0;
}
