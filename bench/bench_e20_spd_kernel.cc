// E20 — the SPD kernel matrix: every pass engine at every intra-pass
// thread count. Classic top-down and direction-optimizing hybrid BFS
// passes (sp/bfs_spd.h) run on the registry graphs plus a directed
// stand-in; delta-stepping passes (sp/delta_spd.h) run on two weighted
// copies of the same graphs: `delta` on uniform [1,3] edge weights, where
// ties are all but absent, and `delta-int` on weights drawn from {1, 2,
// 3}, where exact ties give many vertices several shortest-path parents
// for the det gate to compare. Each kernel runs at 1, 2, 4 and 8 threads
// (SpdOptions::num_threads).
//
// Per (graph, kernel, threads) row the harness reports
//
//   * passes/s            — forward SPD passes only,
//   * fused p/s           — pass + dependency accumulation (the true
//                           per-sample unit every estimator pays), with
//                           the sweep on the pass engine's pool as the
//                           oracle wires it,
//   * speedup / fused x   — against the 1-thread row of the same kernel,
//   * fused vs classic    — hybrid rows only: the classic row's fused
//                           time over the hybrid row's, at the same
//                           thread count,
//   * sweep us/pass       — the dependency accumulation alone, after this
//                           row's pass,
//   * edges/pass          — edges examined per pass (hardware-independent),
//   * bu levels/pass, switches/pass — bottom-up levels and direction
//                           switches per pass (BFS kernels),
//   * det                 — bit-identity gate. The hybrid 1-thread row is
//                           checked against the classic 1-thread row, and
//                           every row above 1 thread against its own
//                           kernel's 1-thread row: dist/wdist, sigma,
//                           order, level offsets, edge slices and
//                           dependency vectors must match exactly. BFS
//                           slices match as sets (only each parent's
//                           children are ordered), delta-stepping slices
//                           edge for edge. "!DET" must never appear; the
//                           process exits 1 if it does.
//
//   bench_e20_spd_kernel [sources_per_graph] [--smoke]
//                        [--alpha=<a>] [--beta=<b>] [--grain=<g>]
//
// Defaults: 64 sources per graph and the SpdOptions defaults; --smoke
// drops to 8 sources and a smaller directed graph (the CI artifact run);
// --alpha/--beta override the hybrid kernel's switch thresholds (this is
// the harness the defaults were tuned with); --grain overrides the
// per-level parallel cutoff (0 forces every level and wave through the
// sharded steps — the worst case for overhead, the best case for
// coverage). A malformed value exits 2. Timing loops report the
// fastest-of-3 wall clock; the JSON twin lands in BENCH_e20.json.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "datasets/registry.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"
#include "util/rng.h"
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

struct KernelRun {
  double pass_seconds = 0.0;
  double fused_seconds = 0.0;
  double sweep_seconds = 0.0;
  // Work counters for one sweep over the source set.
  std::uint64_t edges_examined = 0;
  std::uint64_t bottom_up_levels = 0;
  std::uint64_t direction_switches = 0;
};

/// Times `Spd` (BfsSpd or DeltaSpd) over the sources. The accumulator
/// borrows the pass engine's pool, exactly as the oracle/Brandes wiring
/// does, so "fused" times the shipped composition.
template <typename Spd>
KernelRun TimeKernel(const CsrGraph& graph, const SpdOptions& options,
                     const std::vector<VertexId>& sources) {
  Spd spd(graph, options);
  DependencyAccumulator accumulator(graph, spd.intra_pool(),
                                    options.parallel_grain);
  constexpr int kRepeats = 3;
  double best_pass = -1.0;
  double best_fused = -1.0;
  double best_sweep = -1.0;
  const auto keep_best = [](double seconds, double* best) {
    if (*best < 0.0 || seconds < *best) *best = seconds;
  };
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer pass_timer;
    for (VertexId s : sources) spd.Run(s);
    keep_best(pass_timer.ElapsedSeconds(), &best_pass);

    WallTimer fused_timer;
    for (VertexId s : sources) {
      spd.Run(s);
      accumulator.Accumulate(spd);
    }
    keep_best(fused_timer.ElapsedSeconds(), &best_fused);

    double sweep_seconds = 0.0;
    for (VertexId s : sources) {
      spd.Run(s);
      WallTimer sweep_timer;
      accumulator.Accumulate(spd);
      sweep_seconds += sweep_timer.ElapsedSeconds();
    }
    keep_best(sweep_seconds, &best_sweep);
  }
  KernelRun run;
  run.pass_seconds = best_pass;
  run.fused_seconds = best_fused;
  run.sweep_seconds = best_sweep;
  // Counters are a function of the graph and source alone, and every
  // repeat ran the source set three times.
  constexpr std::uint64_t kSweeps = 3 * kRepeats;
  const auto& stats = spd.total_stats();
  run.edges_examined = stats.edges_examined / kSweeps;
  if constexpr (std::is_same_v<Spd, BfsSpd>) {
    run.bottom_up_levels = stats.bottom_up_levels / kSweeps;
    run.direction_switches = stats.direction_switches / kSweeps;
  }
  return run;
}

/// Level l's SPD edges as (child, parent) pairs, sorted: a BFS slice
/// promises only that each parent's children ascend — the sweep's fold
/// order — so BFS slices are compared as sets.
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

bool SameDag(const ShortestPathDag& a, const ShortestPathDag& b) {
  if (a.dist != b.dist || a.wdist != b.wdist || a.sigma != b.sigma ||
      a.order != b.order || a.level_offsets != b.level_offsets ||
      a.edge_offsets != b.edge_offsets) {
    return false;
  }
  if (!a.weighted) return CanonicalEdgeSlices(a) == CanonicalEdgeSlices(b);
  // Weighted slices are child-major: equal parent runs make equal slices.
  for (std::size_t i = 0; i < a.edge_offsets.back(); ++i) {
    if (a.edges[i].parent != b.edges[i].parent ||
        a.edges[i].child != b.edges[i].child) {
      return false;
    }
  }
  return true;
}

/// The det gate: engines built with `reference` and `candidate` options
/// must record the same DAG and the same dependency vector from every
/// source.
template <typename Spd>
bool Agree(const CsrGraph& graph, const SpdOptions& reference,
           const SpdOptions& candidate, const std::vector<VertexId>& sources) {
  Spd a(graph, reference);
  Spd b(graph, candidate);
  DependencyAccumulator acc_a(graph, a.intra_pool(), reference.parallel_grain);
  DependencyAccumulator acc_b(graph, b.intra_pool(), candidate.parallel_grain);
  for (VertexId s : sources) {
    a.Run(s);
    b.Run(s);
    if (!SameDag(a.dag(), b.dag())) return false;
    if (acc_a.Accumulate(a) != acc_b.Accumulate(b)) return false;
  }
  return true;
}

/// Strict flag values: the whole token must parse, and doubles must be
/// finite, so a typo cannot silently become 0 (alpha 0 disables
/// bottom-up and turns every hybrid row into a classic run).
bool ParseFiniteDouble(const char* text, double* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(text, &end);
  return end != text && *end == '\0' && errno != ERANGE &&
         std::isfinite(*value);
}

bool ParseCount(const char* text, std::uint64_t* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtoull(text, &end, 10);
  return text[0] != '-' && end != text && *end == '\0' && errno != ERANGE;
}

/// `graph` with each edge's weight drawn uniformly from {1, 2, 3}
/// (directedness carries over).
CsrGraph AssignIntegerWeights(const CsrGraph& graph, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(graph.num_vertices());
  builder.set_directed(graph.directed());
  for (const CsrGraph::Edge& e : graph.CollectEdges()) {
    builder.AddWeightedEdge(e.u, e.v,
                            static_cast<double>(1 + rng.NextBounded(3)));
  }
  StatusOr<CsrGraph> built = builder.Build();
  MHBC_DCHECK(built.ok());
  return std::move(built).value();
}

enum class Kernel { kClassic, kHybrid, kDelta, kDeltaInt };

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kClassic: return "classic";
    case Kernel::kHybrid: return "hybrid";
    case Kernel::kDelta: return "delta";
    case Kernel::kDeltaInt: return "delta-int";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("E20", "SPD kernel matrix: classic, hybrid and "
                       "delta-stepping passes at 1/2/4/8 threads");
  std::uint64_t sources_per_graph = 64;
  bool smoke = false;
  SpdOptions defaults;  // hybrid kernel, default alpha/beta/parallel_grain
  for (int i = 1; i < argc; ++i) {
    bool valid = true;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--alpha=", 8) == 0) {
      valid = ParseFiniteDouble(argv[i] + 8, &defaults.alpha);
    } else if (std::strncmp(argv[i], "--beta=", 7) == 0) {
      valid = ParseFiniteDouble(argv[i] + 7, &defaults.beta);
    } else if (std::strncmp(argv[i], "--grain=", 8) == 0) {
      valid = ParseCount(argv[i] + 8, &defaults.parallel_grain);
    } else {
      valid = ParseCount(argv[i], &sources_per_graph) && sources_per_graph > 0;
    }
    if (!valid) {
      std::fprintf(stderr,
                   "bad argument '%s'\nusage: %s [sources_per_graph] "
                   "[--smoke] [--alpha=<a>] [--beta=<b>] [--grain=<g>]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  if (smoke) sources_per_graph = std::min<std::uint64_t>(sources_per_graph, 8);
  bench::JsonReport json("e20");
  json.AddMeta("sources_per_graph", std::to_string(sources_per_graph));
  json.AddMeta("smoke", smoke ? "true" : "false");
  json.AddMeta("alpha", FormatDouble(defaults.alpha, 2));
  json.AddMeta("beta", FormatDouble(defaults.beta, 2));
  json.AddMeta("parallel_grain", std::to_string(defaults.parallel_grain));

  bool all_deterministic = true;
  Table table({"graph", "n", "m", "kernel", "threads", "passes/s",
               "fused p/s", "speedup", "fused x", "fused vs classic",
               "sweep us/pass", "edges/pass", "bu levels/pass",
               "switches/pass", "det"});

  // Registry graphs (undirected) plus a directed stand-in: bottom-up
  // levels scan in-edges and weighted passes keep parent lists over the
  // in-CSR on directed graphs, so the matrix and its gates cover them.
  std::vector<std::pair<std::string, CsrGraph>> cases;
  for (const DatasetSpec& spec : DatasetRegistry()) {
    cases.emplace_back(spec.name, spec.make());
  }
  cases.emplace_back("directed-lcg",
                     MakeRandomDirected(smoke ? 2000 : 20000,
                                        smoke ? 12000 : 120000, 0xE20D));

  for (const auto& [name, graph] : cases) {
    const CsrGraph weighted = AssignUniformWeights(graph, 1.0, 3.0, 0xE24);
    const CsrGraph integer_weighted = AssignIntegerWeights(graph, 0xE201);
    const std::vector<VertexId> sources =
        SpreadSources(graph.num_vertices(), sources_per_graph);
    const double passes = static_cast<double>(sources.size());
    double classic_fused_seconds[std::size(kThreadCounts)] = {};

    for (Kernel kernel : {Kernel::kClassic, Kernel::kHybrid, Kernel::kDelta,
                          Kernel::kDeltaInt}) {
      SpdOptions sequential = defaults;
      sequential.kernel =
          kernel == Kernel::kClassic ? SpdKernel::kClassic : SpdKernel::kHybrid;
      sequential.num_threads = 1;
      double base_pps = 0.0;
      double base_fps = 0.0;
      for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
        SpdOptions options = sequential;
        options.num_threads = kThreadCounts[t];
        KernelRun run;
        bool det = true;
        if (kernel == Kernel::kDelta || kernel == Kernel::kDeltaInt) {
          const CsrGraph& copy =
              kernel == Kernel::kDelta ? weighted : integer_weighted;
          run = TimeKernel<DeltaSpd>(copy, options, sources);
          if (t > 0) {
            det = Agree<DeltaSpd>(copy, sequential, options, sources);
          }
        } else {
          run = TimeKernel<BfsSpd>(graph, options, sources);
          if (t > 0) {
            det = Agree<BfsSpd>(graph, sequential, options, sources);
          } else if (kernel == Kernel::kHybrid) {
            SpdOptions classic = sequential;
            classic.kernel = SpdKernel::kClassic;
            det = Agree<BfsSpd>(graph, classic, options, sources);
          }
        }
        all_deterministic = all_deterministic && det;

        const double pps = passes / run.pass_seconds;
        const double fps = passes / run.fused_seconds;
        if (t == 0) {
          base_pps = pps;
          base_fps = fps;
        }
        std::string vs_classic = "-";
        if (kernel == Kernel::kClassic) {
          classic_fused_seconds[t] = run.fused_seconds;
        } else if (kernel == Kernel::kHybrid) {
          vs_classic =
              FormatDouble(classic_fused_seconds[t] / run.fused_seconds, 2) +
              "x";
        }
        const bool bfs =
            kernel == Kernel::kClassic || kernel == Kernel::kHybrid;
        table.AddRow(
            {name, FormatCount(graph.num_vertices()),
             FormatCount(graph.num_edges()), KernelName(kernel),
             std::to_string(kThreadCounts[t]), FormatDouble(pps, 0),
             FormatDouble(fps, 0), FormatDouble(pps / base_pps, 2) + "x",
             FormatDouble(fps / base_fps, 2) + "x", vs_classic,
             FormatDouble(run.sweep_seconds * 1e6 / passes, 1),
             FormatDouble(static_cast<double>(run.edges_examined) / passes, 0),
             bfs ? FormatDouble(
                       static_cast<double>(run.bottom_up_levels) / passes, 2)
                 : "-",
             bfs ? FormatDouble(
                       static_cast<double>(run.direction_switches) / passes, 2)
                 : "-",
             det ? "ok" : "!DET"});
      }
    }
  }

  bench::EmitTable(
      &json,
      "E20: SPD kernel matrix (passes/sec; speedups vs the 1-thread row of "
      "the same kernel; fused vs classic at equal threads; delta rows on "
      "[1,3]-weighted copies, delta-int rows on {1,2,3}-weighted copies; "
      "!DET flags a bit-identity violation — must never appear)",
      table);
  const std::string written = json.Write();
  if (!written.empty()) std::printf("wrote %s\n", written.c_str());
  if (!all_deterministic) {
    // Fail the run (and the CI release-bench job): a !DET row means a
    // kernel or a thread count broke bit-identity.
    std::fprintf(stderr, "FAIL: SPD bit-identity violation (!DET)\n");
    return 1;
  }
  return 0;
}
