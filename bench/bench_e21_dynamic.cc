// E21 — dynamic graphs: amortized incremental re-estimate vs cold rebuild.
//
// BetweennessEngine::ApplyDelta edits the served graph in place,
// selectively keeping every memoized shortest-path pass the edit batch
// provably does not touch (DependencyMemo::Carry) while whole-graph
// products rebuild. This harness quantifies the payoff on registry graphs,
// unweighted and with uniform [1,3] edge weights (the weighted survival
// test also reads minimum incident weights): for each edit batch size it
// generates random edit scripts (MakeRandomEditScript — the same
// distribution the equivalence test harness locks down), then measures
// per round
//
//   incremental — ApplyDelta on the live engine + re-estimate, vs
//   cold       — rebuild the post-edit graph from its edge list through
//                GraphBuilder, construct a fresh engine, estimate.
//
// The `carry passes` column counts the reverse passes (BFS unweighted,
// Dijkstra weighted) the memo's survival test ran per round, inside the
// incremental time; they are not in `incr passes`, which counts the
// forward passes the estimates ran.
//
// Both paths must agree bit-for-bit on every statistical report field
// (the mutation determinism contract, centrality/engine.h); the `ident`
// column re-checks that per row, and any `NO` exits 1. The expected
// shape: incremental wins big at batch size 1 (most passes survive one
// edit) and converges to the cold cost as batches grow (each extra edit
// multiplies the chance a cached pass is touched). The run exits 2 unless
// some batch of at most 4 edits needs fewer passes than a cold engine,
// among the unweighted rows and again among the weighted rows.
//
//   bench_e21_dynamic [--smoke] [dataset ...]
//     default datasets: email-like-1k road-like-grid45
//     --smoke: community-ring-300, fewer rounds (the CI configuration)
//
// Emits BENCH_e21.json next to the markdown output (bench_common.h).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "centrality/engine.h"
#include "datasets/registry.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/common.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using mhbc::CsrGraph;
using mhbc::VertexId;

bool ReportsIdentical(const mhbc::EstimateReport& a,
                      const mhbc::EstimateReport& b) {
  return a.value == b.value && a.samples_used == b.samples_used &&
         a.acceptance_rate == b.acceptance_rate && a.ess == b.ess &&
         a.std_error == b.std_error && a.ci_half_width == b.ci_half_width &&
         a.converged == b.converged;
}

/// Scratch rebuild of `graph` through the ordinary construction path —
/// the cost a system without ApplyDelta pays to serve the post-edit graph.
CsrGraph RebuildFromEdges(const CsrGraph& graph) {
  mhbc::GraphBuilder builder(graph.num_vertices());
  builder.set_directed(graph.directed());
  for (const CsrGraph::Edge& edge : graph.CollectEdges()) {
    builder.AddWeightedEdge(edge.u, edge.v, edge.weight);
  }
  auto built = builder.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "error: scratch rebuild failed: %s\n",
                 built.status().ToString().c_str());
  }
  MHBC_DCHECK(built.ok());
  return std::move(built).value();
}

struct RowResult {
  double incremental_ms = 0.0;
  double cold_ms = 0.0;
  std::uint64_t incremental_passes = 0;
  std::uint64_t cold_passes = 0;
  double carry_passes = 0.0;
  bool identical = true;
};

/// Runs `rounds` edit-then-re-estimate rounds at one batch size and
/// returns per-round averages for both serving strategies.
RowResult RunRows(const CsrGraph& start, mhbc::EstimatorKind kind,
                  std::size_t batch, int rounds, std::uint64_t seed_base) {
  const std::vector<VertexId> targets = [&start] {
    const mhbc::bench::TargetSet t = mhbc::bench::PickTargets(start);
    return std::vector<VertexId>{t.hub, t.median, t.peripheral};
  }();
  mhbc::EstimateRequest request;
  request.kind = kind;
  request.samples = 2'000;
  request.seed = 0xE21;

  mhbc::BetweennessEngine engine(start);
  // Warm serving state: the steady-state regime ApplyDelta is for.
  auto warm = engine.EstimateMany(targets, request);
  if (!warm.ok()) {
    std::fprintf(stderr, "error: %s\n", warm.status().ToString().c_str());
  }
  MHBC_DCHECK(warm.ok());

  RowResult result;
  for (int round = 0; round < rounds; ++round) {
    const mhbc::GraphDelta delta = mhbc::MakeRandomEditScript(
        engine.graph(), batch, seed_base + 977 * round);

    const std::uint64_t passes_before = engine.total_sp_passes();
    const std::uint64_t carry_before = engine.memo_stats().carry_passes;
    mhbc::WallTimer incremental_timer;
    MHBC_DCHECK(engine.ApplyDelta(delta).ok());
    const auto incremental = engine.EstimateMany(targets, request);
    result.incremental_ms += incremental_timer.ElapsedSeconds() * 1e3;
    result.incremental_passes += engine.total_sp_passes() - passes_before;
    result.carry_passes += static_cast<double>(
        engine.memo_stats().carry_passes - carry_before);

    mhbc::WallTimer cold_timer;
    const CsrGraph scratch = RebuildFromEdges(engine.graph());
    mhbc::BetweennessEngine cold(scratch);
    const auto cold_reports = cold.EstimateMany(targets, request);
    result.cold_ms += cold_timer.ElapsedSeconds() * 1e3;
    result.cold_passes += cold.total_sp_passes();

    MHBC_DCHECK(incremental.ok() && cold_reports.ok());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      result.identical = result.identical &&
                         ReportsIdentical(incremental.value()[i],
                                          cold_reports.value()[i]);
    }
  }
  result.incremental_ms /= rounds;
  result.cold_ms /= rounds;
  result.incremental_passes /= static_cast<std::uint64_t>(rounds);
  result.cold_passes /= static_cast<std::uint64_t>(rounds);
  result.carry_passes /= rounds;
  return result;
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
    datasets = smoke ? std::vector<std::string>{"community-ring-300"}
                     : std::vector<std::string>{"email-like-1k",
                                                "road-like-grid45"};
  }
  const int rounds = smoke ? 3 : 6;
  const std::size_t batches[] = {1, 4, 16, 64};
  const mhbc::EstimatorKind kinds[] = {mhbc::EstimatorKind::kUniformSource,
                                       mhbc::EstimatorKind::kMetropolisHastings};

  mhbc::bench::Banner("E21", "incremental re-estimate vs cold rebuild");
  mhbc::bench::JsonReport report("e21");
  report.AddMeta("rounds", std::to_string(rounds));
  report.AddMeta("smoke", smoke ? "true" : "false");

  bool all_identical = true;
  // The exit gate compares shortest-path pass counts, not wall clock:
  // pass counts are deterministic for fixed seeds, so the CI smoke run
  // cannot flake on a noisy shared runner. Unweighted and weighted rows
  // are gated apart, since their edit-survival tests differ.
  struct SmallBatchBest {
    double speedup = 0.0;
    double pass_ratio = 0.0;
    std::string dataset;
  };
  SmallBatchBest best[2];  // [0] unweighted rows, [1] weighted rows
  for (const std::string& name : datasets) {
    auto made = mhbc::MakeDataset(name);
    if (!made.ok()) {
      std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
      return 1;
    }
    const CsrGraph weighted_copy =
        mhbc::AssignUniformWeights(made.value(), 1.0, 3.0, 0xE24);
    for (const bool weighted : {false, true}) {
      const CsrGraph& graph = weighted ? weighted_copy : made.value();
      SmallBatchBest& gate = best[weighted ? 1 : 0];
      mhbc::Table table({"estimator", "edit batch", "incr ms/round",
                         "cold ms/round", "speedup", "incr passes",
                         "cold passes", "carry passes", "ident"});
      std::uint64_t seed = 0xE21'0000;
      for (const mhbc::EstimatorKind kind : kinds) {
        for (const std::size_t batch : batches) {
          const RowResult row = RunRows(graph, kind, batch, rounds, seed);
          seed += 0x1000;
          const double speedup = row.incremental_ms > 0.0
                                     ? row.cold_ms / row.incremental_ms
                                     : 0.0;
          all_identical = all_identical && row.identical;
          if (batch <= 4) {
            gate.speedup = std::max(gate.speedup, speedup);
            const double pass_ratio =
                row.incremental_passes > 0
                    ? static_cast<double>(row.cold_passes) /
                          static_cast<double>(row.incremental_passes)
                    : 0.0;
            if (pass_ratio > gate.pass_ratio) {
              gate.pass_ratio = pass_ratio;
              gate.dataset = name;
            }
          }
          table.AddRow({mhbc::EstimatorKindName(kind), std::to_string(batch),
                        mhbc::FormatDouble(row.incremental_ms, 3),
                        mhbc::FormatDouble(row.cold_ms, 3),
                        mhbc::FormatDouble(speedup, 2) + "x",
                        std::to_string(row.incremental_passes),
                        std::to_string(row.cold_passes),
                        mhbc::FormatDouble(row.carry_passes, 1),
                        row.identical ? "yes" : "NO"});
        }
      }
      mhbc::bench::EmitTable(
          &report,
          "E21: amortized re-estimate on " + made.value().name() +
              (weighted ? " with uniform [1,3] weights" : "") + " (n=" +
              std::to_string(graph.num_vertices()) + ", m=" +
              std::to_string(graph.num_edges()) + ")",
          table);
    }
  }

  report.AddMeta("bit_identical", all_identical ? "true" : "false");
  for (const bool weighted : {false, true}) {
    const SmallBatchBest& gate = best[weighted ? 1 : 0];
    const std::string prefix = weighted ? "weighted_" : "";
    report.AddMeta(prefix + "best_small_batch_speedup",
                   mhbc::FormatDouble(gate.speedup, 2));
    report.AddMeta(prefix + "best_small_batch_pass_ratio",
                   mhbc::FormatDouble(gate.pass_ratio, 2));
    report.AddMeta(prefix + "best_small_batch_dataset", gate.dataset);
  }
  const std::string json = report.Write();
  if (!json.empty()) std::printf("\nwrote %s\n", json.c_str());

  for (const bool weighted : {false, true}) {
    const SmallBatchBest& gate = best[weighted ? 1 : 0];
    std::printf("\nbest %ssmall-batch (<=4 edits): %.2fx wall clock, %.2fx "
                "fewer passes, on %s\n",
                weighted ? "weighted " : "", gate.speedup, gate.pass_ratio,
                gate.dataset.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: incremental and cold engines disagree on "
                 "statistical report fields\n");
    return 1;
  }
  // Selective invalidation must keep passes alive on small batches,
  // unweighted and weighted: a ratio <= 1 means it degraded to wholesale.
  return best[0].pass_ratio > 1.0 && best[1].pass_ratio > 1.0 ? 0 : 2;
}
