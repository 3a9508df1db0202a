#include "graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "centrality/engine.h"
#include "exact/dependency_oracle.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace mhbc {
namespace {

// ---------------------------------------------------------------- helpers

/// Reference model of an evolving graph: the edge map is the ground truth
/// the DynamicGraph composition and every scratch rebuild are checked
/// against.
struct Model {
  VertexId n = 0;
  bool weighted = false;
  std::map<std::pair<VertexId, VertexId>, double> edges;  // key u < v

  static Model FromGraph(const CsrGraph& graph) {
    Model model;
    model.n = graph.num_vertices();
    model.weighted = graph.weighted();
    for (const CsrGraph::Edge& e : graph.CollectEdges()) {
      model.edges[{std::min(e.u, e.v), std::max(e.u, e.v)}] = e.weight;
    }
    return model;
  }

  void Apply(const GraphDelta& delta) {
    for (const GraphEdit& edit : delta.edits()) {
      const auto key = std::minmax(edit.u, edit.v);
      switch (edit.kind) {
        case GraphEdit::Kind::kAddVertex:
          ++n;
          break;
        case GraphEdit::Kind::kAddEdge:
          ASSERT_EQ(edges.count({key.first, key.second}), 0u);
          edges[{key.first, key.second}] = edit.weight;
          break;
        case GraphEdit::Kind::kRemoveEdge:
          ASSERT_EQ(edges.erase({key.first, key.second}), 1u);
          break;
      }
    }
  }

  /// Scratch rebuild through the ordinary construction path.
  CsrGraph Build() const {
    GraphBuilder builder(n);
    for (const auto& [key, weight] : edges) {
      if (weighted) {
        builder.AddWeightedEdge(key.first, key.second, weight);
      } else {
        builder.AddEdge(key.first, key.second);
      }
    }
    auto built = builder.Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return std::move(built).value();
  }
};

void ExpectGraphsIdentical(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.weighted(), b.weighted());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << "vertex " << v << " slot " << i;
    }
    if (a.weighted()) {
      const auto wa = a.weights(v);
      const auto wb = b.weights(v);
      for (std::size_t i = 0; i < wa.size(); ++i) {
        ASSERT_EQ(wa[i], wb[i]) << "vertex " << v << " slot " << i;
      }
    }
  }
}

/// Checks the dynamic graph's composed accessors against the model.
void ExpectMatchesModel(const DynamicGraph& dynamic, const Model& model) {
  ASSERT_EQ(dynamic.num_vertices(), model.n);
  ASSERT_EQ(dynamic.num_edges(), model.edges.size());
  std::vector<std::vector<std::pair<VertexId, double>>> adjacency(model.n);
  for (const auto& [key, weight] : model.edges) {
    adjacency[key.first].emplace_back(key.second, weight);
    adjacency[key.second].emplace_back(key.first, weight);
  }
  for (VertexId v = 0; v < model.n; ++v) {
    ASSERT_EQ(dynamic.degree(v), adjacency[v].size()) << "vertex " << v;
    std::size_t i = 0;
    for (const DynamicGraph::Neighbor nb : dynamic.neighbors(v)) {
      ASSERT_LT(i, adjacency[v].size()) << "vertex " << v;
      EXPECT_EQ(nb.id, adjacency[v][i].first) << "vertex " << v;
      EXPECT_EQ(nb.weight, model.weighted ? adjacency[v][i].second : 1.0)
          << "vertex " << v;
      ++i;
    }
    EXPECT_EQ(i, adjacency[v].size()) << "vertex " << v;
  }
}

// ------------------------------------------------------ overlay semantics

TEST(DynamicGraphTest, ComposesAddsAndRemovesInAscendingOrder) {
  DynamicGraph dynamic(MakePath(6));  // 0-1-2-3-4-5
  ASSERT_TRUE(dynamic.AddEdge(0, 5).ok());
  ASSERT_TRUE(dynamic.AddEdge(0, 3).ok());
  ASSERT_TRUE(dynamic.RemoveEdge(0, 1).ok());
  EXPECT_EQ(dynamic.num_edges(), 6u);
  EXPECT_EQ(dynamic.degree(0), 2u);
  EXPECT_TRUE(dynamic.HasEdge(0, 3));
  EXPECT_TRUE(dynamic.HasEdge(5, 0));
  EXPECT_FALSE(dynamic.HasEdge(0, 1));
  std::vector<VertexId> ids;
  for (const DynamicGraph::Neighbor nb : dynamic.neighbors(0)) {
    ids.push_back(nb.id);
    EXPECT_EQ(nb.weight, 1.0);
  }
  EXPECT_EQ(ids, (std::vector<VertexId>{3, 5}));
}

TEST(DynamicGraphTest, AddVertexExtendsIdSpace) {
  DynamicGraph dynamic(MakeCycle(4));
  const VertexId fresh = dynamic.AddVertex();
  EXPECT_EQ(fresh, 4u);
  EXPECT_EQ(dynamic.num_vertices(), 5u);
  EXPECT_EQ(dynamic.degree(fresh), 0u);
  ASSERT_TRUE(dynamic.AddEdge(1, fresh).ok());
  EXPECT_TRUE(dynamic.HasEdge(fresh, 1));
  EXPECT_EQ(dynamic.degree(fresh), 1u);
  std::vector<VertexId> ids;
  for (const DynamicGraph::Neighbor nb : dynamic.neighbors(fresh)) {
    ids.push_back(nb.id);
  }
  EXPECT_EQ(ids, (std::vector<VertexId>{1}));
}

TEST(DynamicGraphTest, WeightedRemoveThenReAddKeepsNewWeight) {
  GraphBuilder builder(3);
  builder.AddWeightedEdge(0, 1, 2.0);
  builder.AddWeightedEdge(1, 2, 3.0);
  DynamicGraph dynamic(std::move(builder.Build()).value());
  ASSERT_TRUE(dynamic.RemoveEdge(0, 1).ok());
  ASSERT_TRUE(dynamic.AddEdge(0, 1, 7.5).ok());
  EXPECT_TRUE(dynamic.HasEdge(0, 1));
  EXPECT_EQ(dynamic.EdgeWeight(0, 1), 7.5);
  EXPECT_EQ(dynamic.EdgeWeight(1, 0), 7.5);
  // Remove the re-added edge again: the base mask must hold.
  ASSERT_TRUE(dynamic.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(dynamic.HasEdge(0, 1));
  EXPECT_EQ(dynamic.num_edges(), 1u);
  const CsrGraph& csr = dynamic.Csr();
  EXPECT_EQ(csr.num_edges(), 1u);
  EXPECT_TRUE(csr.weighted());
  EXPECT_EQ(csr.EdgeWeight(1, 2), 3.0);
}

TEST(DynamicGraphTest, ReAddAtBaseWeightCancelsTheMask) {
  DynamicGraph dynamic(MakeCycle(5));
  ASSERT_TRUE(dynamic.RemoveEdge(0, 1).ok());
  ASSERT_TRUE(dynamic.AddEdge(0, 1).ok());
  EXPECT_TRUE(dynamic.HasEdge(0, 1));
  EXPECT_EQ(dynamic.overlay_edits(), 0u);  // net no-op collapsed
  EXPECT_EQ(dynamic.num_edges(), 5u);
}

TEST(DynamicGraphTest, ApplyIsAtomicOnMidBatchFailure) {
  DynamicGraph dynamic(MakePath(4));
  const std::uint64_t epoch = dynamic.epoch();
  GraphDelta delta;
  delta.AddEdge(0, 2).RemoveEdge(0, 2).RemoveEdge(0, 2);  // last op invalid
  const Status status = dynamic.Apply(delta);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.epoch(), epoch);
  EXPECT_EQ(dynamic.num_edges(), 3u);
  EXPECT_FALSE(dynamic.HasEdge(0, 2));
  EXPECT_EQ(dynamic.overlay_edits(), 0u);
}

TEST(DynamicGraphTest, SequentialValidationAllowsIntraBatchDependencies) {
  DynamicGraph dynamic(MakePath(3));
  GraphDelta delta;
  delta.AddVertices(1).AddEdge(0, 3).RemoveEdge(0, 3).AddEdge(2, 3);
  ASSERT_TRUE(dynamic.Apply(delta).ok());
  EXPECT_EQ(dynamic.num_vertices(), 4u);
  EXPECT_TRUE(dynamic.HasEdge(2, 3));
  EXPECT_FALSE(dynamic.HasEdge(0, 3));
}

TEST(DynamicGraphTest, RejectsInvalidEdits) {
  DynamicGraph dynamic(MakePath(4));
  EXPECT_FALSE(dynamic.AddEdge(0, 1).ok());       // duplicate
  EXPECT_FALSE(dynamic.AddEdge(2, 2).ok());       // self-loop
  EXPECT_FALSE(dynamic.AddEdge(0, 9).ok());       // out of range
  EXPECT_FALSE(dynamic.AddEdge(0, 2, -1.0).ok()); // non-positive weight
  EXPECT_FALSE(dynamic.AddEdge(0, 2, 2.5).ok());  // weighted on unweighted
  EXPECT_FALSE(dynamic.RemoveEdge(0, 2).ok());    // no such edge
  EXPECT_FALSE(dynamic.RemoveEdge(0, 9).ok());    // out of range
  EXPECT_FALSE(dynamic.RemoveEdge(1, 1).ok());    // self-loop
  EXPECT_EQ(dynamic.num_edges(), 3u);
  EXPECT_EQ(dynamic.epoch(), 0u);
}

TEST(DynamicGraphTest, CompactsPastTheOverlayThreshold) {
  DynamicGraphOptions options;
  options.min_compact_edits = 4;
  options.compact_fraction = 0.0;
  DynamicGraph dynamic(MakePath(10), options);
  ASSERT_TRUE(dynamic.AddEdge(0, 9).ok());  // 2 overlay entries
  ASSERT_TRUE(dynamic.AddEdge(0, 5).ok());  // 4 — at, not past, threshold
  EXPECT_EQ(dynamic.overlay_edits(), 4u);
  ASSERT_TRUE(dynamic.AddEdge(2, 7).ok());  // 6 > 4: auto-compacted
  EXPECT_EQ(dynamic.overlay_edits(), 0u);
  EXPECT_EQ(dynamic.base().num_edges(), 12u);
  EXPECT_TRUE(dynamic.HasEdge(0, 9));
  EXPECT_TRUE(dynamic.HasEdge(2, 7));
}

TEST(DynamicGraphTest, CsrMatcherScratchRebuildAfterMixedEdits) {
  const CsrGraph start = MakeConnectedCaveman(4, 6);
  Model model = Model::FromGraph(start);
  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.RemoveEdge(0, 1).AddEdge(0, 12).AddVertices(2).AddEdge(24, 25)
      .AddEdge(3, 24);
  model.Apply(delta);
  ASSERT_TRUE(dynamic.Apply(delta).ok());
  ExpectMatchesModel(dynamic, model);
  ExpectGraphsIdentical(dynamic.Csr(), model.Build());
  EXPECT_EQ(dynamic.Csr().name(), start.name());
}

// ------------------------------------------------------------ edit scripts

TEST(EditScriptTest, ParsesAddRemoveAddVertexAndComments) {
  const auto delta = ParseEditScriptText(
      "# header comment\n"
      "add 0 5\n"
      "\n"
      "remove 3 4   # trailing comment\n"
      "addvertex\n"
      "addvertex 3\n"
      "add 1 2 0.25\n",
      "test");
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  const auto& edits = delta.value().edits();
  ASSERT_EQ(edits.size(), 7u);
  EXPECT_EQ(edits[0].kind, GraphEdit::Kind::kAddEdge);
  EXPECT_EQ(edits[0].u, 0u);
  EXPECT_EQ(edits[0].v, 5u);
  EXPECT_EQ(edits[1].kind, GraphEdit::Kind::kRemoveEdge);
  EXPECT_EQ(edits[2].kind, GraphEdit::Kind::kAddVertex);
  EXPECT_EQ(edits[5].kind, GraphEdit::Kind::kAddVertex);
  EXPECT_EQ(edits[6].weight, 0.25);
}

TEST(EditScriptTest, RejectsMalformedLinesWithLineNumbers) {
  const char* bad[] = {
      "frobnicate 1 2",       // unknown op
      "add 1",                // missing operand
      "add -1 2",             // negative id
      "add 1 2 0",            // non-positive weight
      "add 1 2 1.0 extra",    // trailing junk
      "remove 1 2 3",         // trailing junk
      "addvertex 0",          // zero count
  };
  for (const char* line : bad) {
    const auto delta = ParseEditScriptText(line, "bad");
    ASSERT_FALSE(delta.ok()) << "accepted: " << line;
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(delta.status().message().find("bad:1"), std::string::npos)
        << delta.status().ToString();
  }
}

TEST(EditScriptTest, CapsTheVerticesOneScriptAdds) {
  const std::string cap = std::to_string(kMaxVerticesAddedPerDelta);
  const std::string over = std::to_string(kMaxVerticesAddedPerDelta + 1ULL);
  // One line over the cap, two lines that sum past it, and counts too
  // large for any integer type: each names the line that crosses.
  for (const auto& [script, line] :
       std::vector<std::pair<std::string, std::string>>{
           {"addvertex " + over, "capped:1"},
           {"addvertex 4294967295", "capped:1"},
           {"add 0 1\naddvertex " + cap + "\naddvertex", "capped:3"},
           {"addvertex 99999999999999999999999", "capped:1"},
       }) {
    const auto delta = ParseEditScriptText(script, "capped");
    ASSERT_FALSE(delta.ok()) << "accepted: " << script;
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(delta.status().message().find(line), std::string::npos)
        << delta.status().ToString();
  }
  // Exactly the cap, over two lines, is accepted.
  const auto at_cap = ParseEditScriptText(
      "addvertex " + std::to_string(kMaxVerticesAddedPerDelta - 1) +
          "\naddvertex\n",
      "capped");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().size(), std::size_t{kMaxVerticesAddedPerDelta});
}

TEST(EditScriptTest, FileRoundTripsAndMissingFileIsIoError) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "mhbc_edit_script_test.edits").string();
  GraphDelta delta;
  // The last weight needs all 17 significant digits to round-trip: the
  // writer must emit full double precision (Apply's re-add cancel test
  // compares weights exactly).
  delta.AddEdge(3, 4).RemoveEdge(1, 2).AddVertices(2).AddEdge(5, 6, 2.5)
      .AddEdge(7, 8, 0.6123456789012345);
  ASSERT_TRUE(WriteEditScript(delta, path).ok());
  const auto parsed = ParseEditScript(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), delta.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    EXPECT_EQ(parsed.value().edits()[i].kind, delta.edits()[i].kind);
    EXPECT_EQ(parsed.value().edits()[i].u, delta.edits()[i].u);
    EXPECT_EQ(parsed.value().edits()[i].v, delta.edits()[i].v);
    EXPECT_EQ(parsed.value().edits()[i].weight, delta.edits()[i].weight);
  }
  std::remove(path.c_str());
  EXPECT_EQ(ParseEditScript(path).status().code(), StatusCode::kIoError);
}

// ------------------------------------------- oracle epoch invalidation

TEST(DependencyOracleDeltaTest, IntraLevelEditKeepsPassesAndStaysExact) {
  // Grid: plenty of equal-depth vertex pairs for intra-level edits.
  const CsrGraph start = MakeGrid(6, 6);
  DependencyOracle oracle(start);
  oracle.set_cache_capacity(64);
  const VertexId source = 0;
  (void)oracle.Dependencies(source);
  ASSERT_EQ(oracle.cached_entries(), 1u);

  // Find an insertable pair at equal hop depth from `source`.
  BfsSpd bfs(start);
  bfs.Run(source);
  const auto& dist = bfs.dag().dist;
  VertexId a = kInvalidVertex, b = kInvalidVertex;
  for (VertexId u = 0; u < start.num_vertices() && a == kInvalidVertex; ++u) {
    for (VertexId v = u + 1; v < start.num_vertices(); ++v) {
      if (dist[u] == dist[v] && !start.HasEdge(u, v)) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_NE(a, kInvalidVertex);

  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.AddEdge(a, b);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  const CsrGraph& next = dynamic.Csr();
  oracle.ApplyGraphDelta(next, resolved);
  EXPECT_EQ(oracle.graph_epoch(), 1u);
  EXPECT_EQ(oracle.cached_entries(), 1u);  // the pass survived
  EXPECT_EQ(oracle.invalidated_entries(), 0u);

  const std::uint64_t hits_before = oracle.cache_hits();
  const std::vector<double> served = oracle.Dependencies(source);
  EXPECT_EQ(oracle.cache_hits(), hits_before + 1);

  DependencyOracle cold(next);
  const std::vector<double>& fresh = cold.Dependencies(source);
  ASSERT_EQ(served.size(), fresh.size());
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    EXPECT_EQ(served[v], fresh[v]) << "vertex " << v;
  }
}

TEST(DependencyOracleDeltaTest, CrossLevelEditDropsTheTouchedPass) {
  const CsrGraph start = MakePath(8);
  DependencyOracle oracle(start);
  oracle.set_cache_capacity(64);
  (void)oracle.Dependencies(0);
  (void)oracle.Dependencies(3);
  ASSERT_EQ(oracle.cached_entries(), 2u);

  // Chord {0,7}: depths from any path vertex differ by 7 - 2*min(...),
  // never zero on a path of even span — both passes must drop.
  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.AddEdge(0, 7);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  oracle.ApplyGraphDelta(dynamic.Csr(), resolved);
  EXPECT_EQ(oracle.cached_entries(), 0u);
  EXPECT_EQ(oracle.invalidated_entries(), 2u);

  // Recomputation serves the post-edit graph.
  DependencyOracle cold(dynamic.Csr());
  const std::vector<double> served = oracle.Dependencies(0);
  const std::vector<double>& fresh = cold.Dependencies(0);
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    EXPECT_EQ(served[v], fresh[v]) << "vertex " << v;
  }
}

TEST(DependencyOracleDeltaTest, VertexAppendExtendsSurvivingPasses) {
  const CsrGraph start = MakeCycle(6);
  DependencyOracle oracle(start);
  oracle.set_cache_capacity(64);
  (void)oracle.Dependencies(2);

  DynamicGraph dynamic(start);
  GraphDelta delta;
  delta.AddVertices(2);
  std::vector<GraphEdit> resolved;
  ASSERT_TRUE(dynamic.Apply(delta, &resolved).ok());
  oracle.ApplyGraphDelta(dynamic.Csr(), resolved);
  EXPECT_EQ(oracle.cached_entries(), 1u);

  const std::vector<double> served = oracle.Dependencies(2);
  ASSERT_EQ(served.size(), 8u);
  EXPECT_EQ(served[6], 0.0);
  EXPECT_EQ(served[7], 0.0);
  DependencyOracle cold(dynamic.Csr());
  const std::vector<double>& fresh = cold.Dependencies(2);
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    EXPECT_EQ(served[v], fresh[v]) << "vertex " << v;
  }
}

// ------------------------------------- randomized equivalence harness
//
// The lockdown the dynamic-graph subsystem answers to: for every random
// edit script, every statistical field an ApplyDelta-refreshed engine
// reports must be bit-identical to a cold engine constructed on the
// scratch-rebuilt post-edit graph — at 1/2/4 threads and under both SPD
// kernels. The matrix below runs 216 scripts through that check (36 per
// configuration, mutating continuously across scripts so multi-epoch
// cache state is exercised), plus the structural sweep further down.

void ExpectReportsIdentical(const EstimateReport& a, const EstimateReport& b,
                            const std::string& where) {
  EXPECT_EQ(a.value, b.value) << where;
  EXPECT_EQ(a.samples_used, b.samples_used) << where;
  EXPECT_EQ(a.acceptance_rate, b.acceptance_rate) << where;
  EXPECT_EQ(a.ess, b.ess) << where;
  EXPECT_EQ(a.std_error, b.std_error) << where;
  EXPECT_EQ(a.ci_half_width, b.ci_half_width) << where;
  EXPECT_EQ(a.converged, b.converged) << where;
}

void RunEquivalenceSweep(unsigned num_threads, SpdKernel kernel,
                         std::uint64_t seed_base, int num_scripts) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.spd.kernel = kernel;

  const CsrGraph start = MakeConnectedCaveman(5, 8);  // n = 40
  Model model = Model::FromGraph(start);
  BetweennessEngine incremental(start, options);

  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 100;
  request.seed = 0xD11A + seed_base;

  for (int script = 0; script < num_scripts; ++script) {
    const std::uint64_t seed = seed_base * 1'000 + script;
    // engine.graph() is the current composed graph — the script generator
    // needs it to stay consistent with the evolving state.
    const GraphDelta delta =
        MakeRandomEditScript(incremental.graph(), 4, seed);
    model.Apply(delta);
    ASSERT_TRUE(incremental.ApplyDelta(delta).ok());
    EXPECT_EQ(incremental.graph_epoch(),
              static_cast<std::uint64_t>(script) + 1);

    const CsrGraph scratch = model.Build();
    ExpectGraphsIdentical(incremental.graph(), scratch);

    BetweennessEngine cold(scratch, options);
    const std::vector<VertexId> targets{
        static_cast<VertexId>(seed % model.n),
        static_cast<VertexId>((seed / 7) % model.n)};
    const auto warm_reports = incremental.EstimateMany(targets, request);
    const auto cold_reports = cold.EstimateMany(targets, request);
    ASSERT_TRUE(warm_reports.ok()) << warm_reports.status().ToString();
    ASSERT_TRUE(cold_reports.ok()) << cold_reports.status().ToString();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      ExpectReportsIdentical(
          warm_reports.value()[i], cold_reports.value()[i],
          "script " + std::to_string(script) + " target " +
              std::to_string(targets[i]) + " threads " +
              std::to_string(num_threads) + " kernel " +
              (kernel == SpdKernel::kClassic ? "classic" : "hybrid"));
    }
  }
}

TEST(DynamicEquivalenceTest, Threads1Classic) {
  RunEquivalenceSweep(1, SpdKernel::kClassic, 1, 36);
}
TEST(DynamicEquivalenceTest, Threads1Hybrid) {
  RunEquivalenceSweep(1, SpdKernel::kHybrid, 2, 36);
}
TEST(DynamicEquivalenceTest, Threads2Classic) {
  RunEquivalenceSweep(2, SpdKernel::kClassic, 3, 36);
}
TEST(DynamicEquivalenceTest, Threads2Hybrid) {
  RunEquivalenceSweep(2, SpdKernel::kHybrid, 4, 36);
}
TEST(DynamicEquivalenceTest, Threads4Classic) {
  RunEquivalenceSweep(4, SpdKernel::kClassic, 5, 36);
}
TEST(DynamicEquivalenceTest, Threads4Hybrid) {
  RunEquivalenceSweep(4, SpdKernel::kHybrid, 6, 36);
}

// Exact scores, iid source sampling, and the RK credit vector must also
// match a cold engine after every mutation (their whole-graph caches are
// rebuilt, not patched).
TEST(DynamicEquivalenceTest, OtherEstimatorsMatchColdAfterEdits) {
  EngineOptions options;
  options.num_threads = 2;
  const CsrGraph start = MakeErdosRenyiGnp(48, 0.12, 0xE5);
  Model model = Model::FromGraph(start);
  BetweennessEngine incremental(start, options);

  for (int script = 0; script < 12; ++script) {
    const GraphDelta delta =
        MakeRandomEditScript(incremental.graph(), 3, 0xBEEF + script);
    model.Apply(delta);
    ASSERT_TRUE(incremental.ApplyDelta(delta).ok());
    const CsrGraph scratch = model.Build();
    BetweennessEngine cold(scratch, options);

    for (const EstimatorKind kind :
         {EstimatorKind::kExact, EstimatorKind::kUniformSource,
          EstimatorKind::kShortestPath}) {
      EstimateRequest request;
      request.kind = kind;
      request.samples = 64;
      request.seed = 0xF00 + script;
      const VertexId target = static_cast<VertexId>((script * 11) % model.n);
      const auto warm = incremental.Estimate(target, request);
      const auto cold_report = cold.Estimate(target, request);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ASSERT_TRUE(cold_report.ok()) << cold_report.status().ToString();
      ExpectReportsIdentical(warm.value(), cold_report.value(),
                             "script " + std::to_string(script) + " kind " +
                                 EstimatorKindName(kind));
    }
  }
}

// A weighted-graph sweep: the carry keeps the passes its reverse-Dijkstra
// test proves untouched, and the mutation contract (bit-identity with a
// cold engine) must hold across every script.
TEST(DynamicEquivalenceTest, WeightedGraphMatchesColdAfterEdits) {
  const CsrGraph start =
      AssignUniformWeights(MakeConnectedCaveman(4, 7), 0.5, 2.0, 0x77);
  Model model = Model::FromGraph(start);
  BetweennessEngine incremental(start);

  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 80;
  request.seed = 0x3E;
  for (int script = 0; script < 10; ++script) {
    const GraphDelta delta =
        MakeRandomEditScript(incremental.graph(), 3, 0xAB + script * 13);
    model.Apply(delta);
    ASSERT_TRUE(incremental.ApplyDelta(delta).ok());
    const CsrGraph scratch = model.Build();
    ExpectGraphsIdentical(incremental.graph(), scratch);
    BetweennessEngine cold(scratch);
    const VertexId target = static_cast<VertexId>((script * 5) % model.n);
    const auto warm = incremental.Estimate(target, request);
    const auto cold_report = cold.Estimate(target, request);
    ASSERT_TRUE(warm.ok() && cold_report.ok());
    ExpectReportsIdentical(warm.value(), cold_report.value(),
                           "weighted script " + std::to_string(script));
  }
}

// Structural-only sweep at higher volume: every random script leaves the
// DynamicGraph composition, its materialized CSR, and a scratch rebuild in
// exact agreement (60 more scripts across three generator families).
TEST(DynamicEquivalenceTest, RandomScriptsKeepCompositionExact) {
  const CsrGraph starts[] = {MakeBarabasiAlbert(60, 2, 0x5EED),
                             MakeGrid(7, 8), MakeWattsStrogatz(50, 4, 0.2, 9)};
  int script_seed = 0;
  for (const CsrGraph& start : starts) {
    Model model = Model::FromGraph(start);
    DynamicGraphOptions options;
    options.min_compact_edits = 24;  // force frequent compaction cycles
    DynamicGraph dynamic(start, options);
    for (int script = 0; script < 20; ++script) {
      // Generate against the model's scratch build so the overlay is NOT
      // forced to compact between scripts (Csr() would).
      const GraphDelta delta =
          MakeRandomEditScript(model.Build(), 6, 0xC0FFEE + script_seed++);
      model.Apply(delta);
      ASSERT_TRUE(dynamic.Apply(delta).ok());
      ExpectMatchesModel(dynamic, model);
    }
    ExpectGraphsIdentical(dynamic.Csr(), model.Build());
  }
}

// total_sp_passes() and dependency_cache_hits() never go backwards across
// an edit, so `after - before` taken across ApplyDelta cannot wrap: every
// sampler counts its passes on the engine's oracle, which survives the
// edit, and the shards ApplyDelta retires keep their counts.
TEST(DynamicEquivalenceTest, WorkCountersNeverGoBackAcrossApplyDelta) {
  const CsrGraph start = MakeBarabasiAlbert(200, 3, 0xC0);
  VertexId u = 0;
  while (start.HasEdge(u, 199)) ++u;  // an edge the graph lacks
  GraphDelta insert;
  insert.AddEdge(u, 199);
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < 8; ++v) vertices.push_back(v * 25);
  for (unsigned threads : {1u, 4u}) {
    for (const EstimatorEntry& entry : EstimatorRegistry()) {
      const std::string where =
          std::string(entry.name) + " threads=" + std::to_string(threads);
      EngineOptions options;
      options.num_threads = threads;
      BetweennessEngine engine(start, options);
      EstimateRequest request;
      request.kind = entry.kind;
      request.samples = 100;
      ASSERT_TRUE(engine.EstimateMany(vertices, request).ok()) << where;
      std::uint64_t passes = engine.total_sp_passes();
      std::uint64_t hits = engine.dependency_cache_hits();
      EXPECT_GT(passes, 0u) << where;
      ASSERT_TRUE(engine.ApplyDelta(insert).ok()) << where;
      EXPECT_GE(engine.total_sp_passes(), passes) << where;
      EXPECT_GE(engine.dependency_cache_hits(), hits) << where;
      passes = engine.total_sp_passes();
      hits = engine.dependency_cache_hits();
      ASSERT_TRUE(engine.EstimateMany(vertices, request).ok()) << where;
      EXPECT_GE(engine.total_sp_passes(), passes) << where;
      EXPECT_GE(engine.dependency_cache_hits(), hits) << where;
    }
  }
}

TEST(DynamicEquivalenceTest, ApplyDeltaFailureLeavesEngineUsable) {
  const CsrGraph start = MakeCycle(8);
  BetweennessEngine engine(start);
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 50;
  const auto before = engine.Estimate(1, request);
  ASSERT_TRUE(before.ok());

  GraphDelta bad;
  bad.AddEdge(0, 4).RemoveEdge(2, 6);  // second op: no such edge
  EXPECT_FALSE(engine.ApplyDelta(bad).ok());
  EXPECT_EQ(engine.graph_epoch(), 0u);
  EXPECT_EQ(engine.graph().num_edges(), 8u);

  const auto after = engine.Estimate(1, request);
  ASSERT_TRUE(after.ok());
  ExpectReportsIdentical(before.value(), after.value(), "failed-delta");
}

}  // namespace
}  // namespace mhbc
