#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "exact/dependency_oracle.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"
#include "sp/dijkstra_spd.h"

// Property, determinism, and invalidation tests for the canonical-wave
// delta-stepping weighted SPD kernel (sp/delta_spd.h):
//
//   * value equivalence against the Dijkstra reference engine (same
//     distances, path counts, predecessor sets, and dependency values —
//     the settle orders differ by design),
//   * bit-identity of the wave-parallel kernel against its sequential
//     self at 2 and 4 threads, under bucket-width and grain sweeps (both
//     are speed knobs, never result knobs),
//   * the selective weighted invalidation criterion in DependencyOracle
//     (slack both ways + the min-incident-weight gate), unit-cased and
//     swept against cold engines over random edit scripts.

namespace mhbc {
namespace {

/// Random positive-weight graph zoo: the generator families the
/// unweighted kernel tests sweep, with uniform [1,3] weights (distinct
/// seeds so families do not share weight streams).
std::vector<CsrGraph> WeightedZoo() {
  std::vector<CsrGraph> graphs;
  graphs.push_back(
      AssignUniformWeights(MakeBarabasiAlbert(300, 3, 0xE24), 1.0, 3.0, 0x1));
  graphs.push_back(
      AssignUniformWeights(MakeErdosRenyiGnm(250, 750, 0xE24), 1.0, 3.0, 0x2));
  graphs.push_back(AssignUniformWeights(MakeErdosRenyiGnp(200, 0.008, 0xE24),
                                        1.0, 3.0, 0x3));  // disconnected-ish
  graphs.push_back(AssignUniformWeights(MakeWattsStrogatz(250, 6, 0.1, 0xE24),
                                        1.0, 3.0, 0x4));
  graphs.push_back(
      AssignUniformWeights(MakeConnectedCaveman(7, 10), 1.0, 3.0, 0x5));
  graphs.push_back(AssignUniformWeights(MakeGrid(13, 13), 1.0, 3.0, 0x6));
  graphs.push_back(AssignUniformWeights(MakeStar(48), 1.0, 3.0, 0x7));
  graphs.push_back(
      AssignUniformWeights(MakeCompleteBipartite(7, 13), 1.0, 3.0, 0x8));
  return graphs;
}

SpdOptions WithThreads(unsigned threads, std::uint64_t grain = 0) {
  SpdOptions options;
  options.num_threads = threads;
  // grain 0 forces every wave through the parallel path, so small test
  // graphs actually exercise the sharded steps.
  options.parallel_grain = grain;
  return options;
}

bool NearlyEqual(double a, double b, double rel = 1e-9) {
  return a == b ||
         std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

void ExpectDagsIdentical(const ShortestPathDag& a, const ShortestPathDag& b) {
  ASSERT_EQ(a.source, b.source);
  EXPECT_EQ(a.wdist, b.wdist);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.level_offsets, b.level_offsets);
}

/// Weighted edge slices are child-major (each child in canonical order,
/// then its parents in relaxation order), so two passes with the same
/// predecessor lists record the same slices as sequences.
void ExpectPredsIdentical(const ShortestPathDag& a,
                          const ShortestPathDag& b) {
  ASSERT_EQ(a.edge_offsets, b.edge_offsets);
  for (std::size_t i = 0; i < a.edge_offsets.back(); ++i) {
    EXPECT_EQ(a.edges[i].parent, b.edges[i].parent) << "edge " << i;
    EXPECT_EQ(a.edges[i].child, b.edges[i].child) << "edge " << i;
  }
  for (VertexId v : a.order) {
    EXPECT_EQ(a.parent_run[v], b.parent_run[v]) << "vertex " << v;
  }
}

/// v's SPD parents, as the RK backtrack enumerates them.
std::vector<VertexId> ParentsOf(const ShortestPathDag& dag,
                                const CsrGraph& graph, VertexId v) {
  std::vector<VertexId> parents;
  ForEachParent(dag, graph, v,
                [&parents](VertexId u) { parents.push_back(u); });
  return parents;
}

// ------------------------------------- value equivalence vs Dijkstra

TEST(WeightedKernelTest, MatchesDijkstraValuesOnWeightedZoo) {
  // DeltaSpd and DijkstraSpd settle in different orders, so only the
  // *values* must agree: distances (near-equal — tie-adjacent sums may
  // round differently along different relaxation orders), path counts
  // (exact — small-graph sigmas are exactly representable), predecessor
  // sets (as sets), and dependency values (near-equal — the fold order
  // over a vertex's SPD children differs with the settle order).
  for (const CsrGraph& g : WeightedZoo()) {
    DeltaSpd delta(g, SpdOptions());
    DijkstraSpd dijkstra(g);
    DependencyAccumulator delta_acc(g);
    DependencyAccumulator dijkstra_acc(g);
    const VertexId step = std::max<VertexId>(1, g.num_vertices() / 7);
    for (VertexId s = 0; s < g.num_vertices(); s += step) {
      SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                   " source=" + std::to_string(s));
      delta.Run(s);
      dijkstra.Run(s);
      const ShortestPathDag& a = delta.dag();
      const ShortestPathDag& b = dijkstra.dag();
      ASSERT_EQ(a.order.size(), b.order.size());
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_TRUE(NearlyEqual(a.wdist[v], b.wdist[v]))
            << "v=" << v << " delta=" << a.wdist[v] << " dij=" << b.wdist[v];
        EXPECT_EQ(a.sigma[v], b.sigma[v]) << "v=" << v;
      }
      for (VertexId v : a.order) {
        std::vector<VertexId> pa = ParentsOf(a, g, v);
        std::vector<VertexId> pb = ParentsOf(b, g, v);
        std::sort(pa.begin(), pa.end());
        std::sort(pb.begin(), pb.end());
        EXPECT_EQ(pa, pb) << "vertex " << v;
      }
      const std::vector<double> da = delta_acc.Accumulate(delta);
      const std::vector<double>& db = dijkstra_acc.Accumulate(b);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_TRUE(NearlyEqual(da[v], db[v], 1e-8))
            << "v=" << v << " delta=" << da[v] << " dij=" << db[v];
      }
    }
  }
}

// ------------------------------------- wave structure

TEST(WeightedKernelTest, WavesAreTopologicalLevelsInCanonicalOrder) {
  // Every recorded SPD edge must cross strictly backward in wave index
  // (waves are topological levels — the property the fused level-parallel
  // dependency sweep relies on), and within each wave the canonical order
  // is ascending (wdist, id). The second graph's weights of 2 and 3 make
  // waves of up to ~1100 members that share two or three distances, so
  // ids order most of each wave.
  const CsrGraph ba = MakeBarabasiAlbert(2000, 4, 0x5A);
  GraphBuilder integer_weights(ba.num_vertices());
  for (const CsrGraph::Edge& e : ba.CollectEdges()) {
    integer_weights.AddWeightedEdge(e.u, e.v, 2.0 + (e.u + e.v) % 2);
  }
  std::vector<CsrGraph> graphs;
  graphs.push_back(
      AssignUniformWeights(MakeBarabasiAlbert(400, 3, 0x51), 1.0, 3.0, 0x9));
  graphs.push_back(std::move(integer_weights.Build()).value());
  for (const CsrGraph& g : graphs) {
    SCOPED_TRACE("n=" + std::to_string(g.num_vertices()));
    DeltaSpd delta(g, SpdOptions());
    delta.Run(17);
    const ShortestPathDag& dag = delta.dag();
    ASSERT_EQ(dag.edge_offsets.size(), dag.level_offsets.size());
    ASSERT_GE(dag.num_levels(), 2u);
    ASSERT_EQ(dag.level_offsets.back(), dag.order.size());
    std::vector<std::size_t> wave_of(g.num_vertices(), 0);
    for (std::size_t l = 0; l < dag.num_levels(); ++l) {
      for (std::size_t i = dag.level_offsets[l]; i < dag.level_offsets[l + 1];
           ++i) {
        wave_of[dag.order[i]] = l;
        if (i > dag.level_offsets[l]) {
          const VertexId prev = dag.order[i - 1];
          const VertexId cur = dag.order[i];
          EXPECT_TRUE(dag.wdist[prev] < dag.wdist[cur] ||
                      (dag.wdist[prev] == dag.wdist[cur] && prev < cur))
              << "wave " << l << " position " << i;
        }
      }
    }
    for (std::size_t l = 0; l < dag.num_levels(); ++l) {
      for (const SpdEdge& edge : dag.level_edges(l)) {
        EXPECT_EQ(wave_of[edge.child], l);
        EXPECT_LT(wave_of[edge.parent], l)
            << "SPD edge " << edge.parent << "->" << edge.child;
      }
    }
    // Slices are child-major: children in the wave's canonical order, each
    // child's parents one run starting at its parent_run index.
    std::vector<std::size_t> position(g.num_vertices(), 0);
    for (std::size_t i = 0; i < dag.order.size(); ++i) {
      position[dag.order[i]] = i;
    }
    for (std::size_t l = 0; l < dag.num_levels(); ++l) {
      const auto edges = dag.level_edges(l);
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i > 0 && edges[i - 1].child == edges[i].child) continue;
        EXPECT_EQ(dag.parent_run[edges[i].child], dag.edge_offsets[l] + i);
        if (i > 0) {
          EXPECT_LT(position[edges[i - 1].child], position[edges[i].child]);
        }
      }
    }
  }
}

// ------------------------------------- parallel bit-identity

TEST(WeightedKernelTest, ParallelMatchesSequentialOnWeightedZoo) {
  // The tentpole determinism sweep: 2 and 4 wave-parallel threads, grain 0
  // (every wave fans out) — wdist/sigma/order/waves, predecessor lists,
  // and dependency vectors must be bit-identical to the sequential kernel
  // on every graph family.
  for (const CsrGraph& g : WeightedZoo()) {
    DeltaSpd sequential(g, SpdOptions());
    DependencyAccumulator sequential_acc(g);
    for (unsigned threads : {2u, 4u}) {
      DeltaSpd parallel(g, WithThreads(threads));
      DependencyAccumulator parallel_acc(g, parallel.intra_pool(),
                                         /*parallel_grain=*/0);
      const VertexId step = std::max<VertexId>(1, g.num_vertices() / 5);
      for (VertexId s = 0; s < g.num_vertices(); s += step) {
        SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) + " threads=" +
                     std::to_string(threads) + " source=" +
                     std::to_string(s));
        sequential.Run(s);
        parallel.Run(s);
        ExpectDagsIdentical(sequential.dag(), parallel.dag());
        ExpectPredsIdentical(sequential.dag(), parallel.dag());
        const std::vector<double> baseline =
            sequential_acc.Accumulate(sequential);
        const std::vector<double>& deltas = parallel_acc.Accumulate(parallel);
        ASSERT_EQ(deltas, baseline);
      }
    }
  }
}

TEST(WeightedKernelTest, BucketWidthOnlyChangesWorkNeverResults) {
  // The canonical wave rule is Δ-invariant: the bucket width organizes the
  // scan but never decides wave membership, so every width must reproduce
  // the auto-width DAG bit for bit — sequential and at 4 threads.
  const CsrGraph g =
      AssignUniformWeights(MakeErdosRenyiGnm(220, 700, 0x43), 1.0, 3.0, 0xA);
  DeltaSpd baseline(g, SpdOptions());
  for (double width : {0.05, 0.9, 2.7, 40.0}) {
    for (unsigned threads : {1u, 4u}) {
      SpdOptions options = WithThreads(threads);
      options.delta_width = width;
      DeltaSpd swept(g, options);
      for (VertexId s : {VertexId{0}, VertexId{110}, VertexId{219}}) {
        SCOPED_TRACE("width=" + std::to_string(width) + " threads=" +
                     std::to_string(threads) + " source=" +
                     std::to_string(s));
        baseline.Run(s);
        swept.Run(s);
        ExpectDagsIdentical(baseline.dag(), swept.dag());
        ExpectPredsIdentical(baseline.dag(), swept.dag());
      }
    }
  }
}

TEST(WeightedKernelTest, ParallelGrainOnlyChangesWorkNeverResults) {
  // Sweeping the grain moves waves between the sequential and parallel
  // relaxation paths; every setting must agree bit-for-bit.
  const CsrGraph g =
      AssignUniformWeights(MakeBarabasiAlbert(300, 3, 0x61), 1.0, 3.0, 0xB);
  DeltaSpd baseline(g, SpdOptions());
  for (std::uint64_t grain : {std::uint64_t{0}, std::uint64_t{64},
                              std::uint64_t{100000}}) {
    DeltaSpd swept(g, WithThreads(4, grain));
    for (VertexId s : {VertexId{0}, VertexId{150}}) {
      SCOPED_TRACE("grain=" + std::to_string(grain) + " source=" +
                   std::to_string(s));
      baseline.Run(s);
      swept.Run(s);
      ExpectDagsIdentical(baseline.dag(), swept.dag());
      ExpectPredsIdentical(baseline.dag(), swept.dag());
    }
  }
}

TEST(WeightedKernelTest, ShardMergeEdgeCaseTopologies) {
  // Wave shapes that stress the shard merge: single-vertex waves (path),
  // one giant wave behind a hub (star), wide diagonal waves (grid), and a
  // tiny graph where most shards and ranges are empty.
  std::vector<CsrGraph> graphs;
  graphs.push_back(AssignUniformWeights(MakePath(70), 1.0, 3.0, 0xC));
  graphs.push_back(AssignUniformWeights(MakeStar(130), 1.0, 3.0, 0xD));
  graphs.push_back(AssignUniformWeights(MakeGrid(11, 17), 1.0, 3.0, 0xE));
  graphs.push_back(AssignUniformWeights(MakeCycle(3), 1.0, 3.0, 0xF));
  for (const CsrGraph& g : graphs) {
    DeltaSpd sequential(g, SpdOptions());
    for (unsigned threads : {1u, 2u, 4u}) {
      DeltaSpd parallel(g, WithThreads(threads));
      for (VertexId s :
           {VertexId{0}, static_cast<VertexId>(g.num_vertices() / 2),
            static_cast<VertexId>(g.num_vertices() - 1)}) {
        SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) + " threads=" +
                     std::to_string(threads) + " source=" +
                     std::to_string(s));
        sequential.Run(s);
        parallel.Run(s);
        ExpectDagsIdentical(sequential.dag(), parallel.dag());
        ExpectPredsIdentical(sequential.dag(), parallel.dag());
      }
    }
  }
}

TEST(WeightedKernelTest, ReuseAcrossSourcesResetsState) {
  // Engine reuse with the parallel scratch in play: alternating sources
  // must reproduce fresh-engine passes exactly (the lazy reset covers
  // wdist/sigma/buckets/preds).
  const CsrGraph g =
      AssignUniformWeights(MakeErdosRenyiGnm(200, 600, 0x42), 1.0, 3.0, 0x10);
  DeltaSpd reused(g, WithThreads(4));
  for (VertexId s : {VertexId{0}, VertexId{150}, VertexId{3}, VertexId{0}}) {
    reused.Run(s);
    DeltaSpd fresh(g, SpdOptions());
    fresh.Run(s);
    ExpectDagsIdentical(reused.dag(), fresh.dag());
    ExpectPredsIdentical(reused.dag(), fresh.dag());
  }
}

TEST(WeightedKernelTest, ZeroThreadsStandaloneIsSequential) {
  // num_threads == 0 means "inherit"; standalone engines have nothing to
  // inherit from and must stay sequential (no pool).
  const CsrGraph g = AssignUniformWeights(MakePath(10), 1.0, 3.0, 0x11);
  DeltaSpd inherit(g, SpdOptions());
  EXPECT_EQ(inherit.intra_pool(), nullptr);
  DeltaSpd one(g, WithThreads(1));
  EXPECT_EQ(one.intra_pool(), nullptr);
  DeltaSpd two(g, WithThreads(2));
  EXPECT_NE(two.intra_pool(), nullptr);
}

TEST(WeightedKernelTest, StatsAccumulateAcrossRuns) {
  const CsrGraph g =
      AssignUniformWeights(MakeBarabasiAlbert(200, 3, 0x31), 1.0, 3.0, 0x12);
  DeltaSpd spd(g, SpdOptions());
  spd.Run(0);
  const std::uint64_t first = spd.last_stats().edges_examined;
  EXPECT_GT(first, 0u);
  EXPECT_GT(spd.last_stats().waves, 0u);
  EXPECT_EQ(spd.total_stats().edges_examined, first);
  spd.Run(1);
  EXPECT_EQ(spd.total_stats().edges_examined,
            first + spd.last_stats().edges_examined);
}

// ------------------------------------- option validation

TEST(WeightedKernelDeathTest, RejectsNegativeTieEpsilon) {
  const CsrGraph g = AssignUniformWeights(MakePath(4), 1.0, 3.0, 0x13);
  SpdOptions options;
  options.tie_epsilon = -1e-9;
  EXPECT_DEATH({ DeltaSpd spd(g, options); }, "tie_epsilon");
  EXPECT_DEATH({ DijkstraSpd spd(g, -1e-9); }, "tie_epsilon");
}

TEST(WeightedKernelDeathTest, RejectsNegativeDeltaWidth) {
  const CsrGraph g = AssignUniformWeights(MakePath(4), 1.0, 3.0, 0x14);
  SpdOptions options;
  options.delta_width = -0.5;
  EXPECT_DEATH({ DeltaSpd spd(g, options); }, "delta_width");
}

// ------------------------------------- selective weighted invalidation

/// Weighted path 0-1-2-3-4-5, all weights 2 (a uniform 1.0 would make the
/// builder emit an *unweighted* graph): wdist from 0 is 2v.
CsrGraph WeightedPath6() {
  GraphBuilder builder(6);
  for (VertexId v = 0; v + 1 < 6; ++v) {
    builder.AddWeightedEdge(v, v + 1, 2.0);
  }
  return std::move(builder.Build()).value();
}

/// The post-edit graph: `base` plus one extra weighted edge.
CsrGraph WithExtraEdge(const CsrGraph& base, VertexId u, VertexId v,
                       double w) {
  GraphBuilder builder(base.num_vertices());
  for (const CsrGraph::Edge& edge : base.CollectEdges()) {
    builder.AddWeightedEdge(edge.u, edge.v, edge.weight);
  }
  builder.AddWeightedEdge(u, v, w);
  return std::move(builder.Build()).value();
}

TEST(WeightedInvalidationTest, SlackEditKeepsCachedPasses) {
  // Adding {0,5} with weight 25 has slack both ways (0+25 > 10,
  // 10+25 > 0) and passes the min-incident-weight gate (25 >= 2), so the
  // memoized pass from source 0 must survive — and still match a cold
  // oracle on the post-edit graph bit for bit.
  const CsrGraph before = WeightedPath6();
  DependencyOracle oracle(before);
  oracle.set_cache_capacity(8);
  oracle.Dependencies(0);
  ASSERT_EQ(oracle.cached_entries(), 1u);

  const CsrGraph after = WithExtraEdge(before, 0, 5, 25.0);
  const std::vector<GraphEdit> edits{
      {GraphEdit::Kind::kAddEdge, 0, 5, 25.0}};
  oracle.ApplyGraphDelta(after, edits);
  EXPECT_EQ(oracle.cached_entries(), 1u);
  EXPECT_EQ(oracle.invalidated_entries(), 0u);

  const std::uint64_t hits_before = oracle.cache_hits();
  const std::vector<double> served = oracle.Dependencies(0);
  EXPECT_EQ(oracle.cache_hits(), hits_before + 1);
  DependencyOracle cold(after);
  EXPECT_EQ(served, cold.Dependencies(0));
}

TEST(WeightedInvalidationTest, ShortcutEditDropsAffectedPass) {
  // Adding {0,5} with weight 3 beats the cached distance (0+3 < 10): the
  // pass must be dropped and recomputed correctly.
  const CsrGraph before = WeightedPath6();
  DependencyOracle oracle(before);
  oracle.set_cache_capacity(8);
  oracle.Dependencies(0);

  const CsrGraph after = WithExtraEdge(before, 0, 5, 3.0);
  const std::vector<GraphEdit> edits{{GraphEdit::Kind::kAddEdge, 0, 5, 3.0}};
  oracle.ApplyGraphDelta(after, edits);
  EXPECT_EQ(oracle.cached_entries(), 0u);
  EXPECT_EQ(oracle.invalidated_entries(), 1u);

  DependencyOracle cold(after);
  EXPECT_EQ(oracle.Dependencies(0), cold.Dependencies(0));
}

TEST(WeightedInvalidationTest, MinIncidentWeightGateIsConservative) {
  // Y graph: 0-1 and 0-2, both weight 2. Adding {1,2} with weight 0.5 has
  // slack both ways (2+0.5 > 2), but the new edge undercuts both
  // endpoints' min incident weight — which can change wave geometry — so
  // the gate must drop the pass even though the DAG happens to survive.
  GraphBuilder builder(3);
  builder.AddWeightedEdge(0, 1, 2.0);
  builder.AddWeightedEdge(0, 2, 2.0);
  const CsrGraph before = std::move(builder.Build()).value();
  DependencyOracle oracle(before);
  oracle.set_cache_capacity(8);
  oracle.Dependencies(0);

  const CsrGraph after = WithExtraEdge(before, 1, 2, 0.5);
  const std::vector<GraphEdit> edits{{GraphEdit::Kind::kAddEdge, 1, 2, 0.5}};
  oracle.ApplyGraphDelta(after, edits);
  EXPECT_EQ(oracle.invalidated_entries(), 1u);
  DependencyOracle cold(after);
  EXPECT_EQ(oracle.Dependencies(0), cold.Dependencies(0));
}

TEST(WeightedInvalidationTest, OffPathRemovalKeepsCachedPasses) {
  // Square 0-1 (1.0), 1-3 (1.0), 0-2 (1.5), 2-3 (1.6): from 0 the edge
  // {2,3} is on no shortest path, has slack both ways, and its weight
  // strictly exceeds both endpoints' min incident weight after removal —
  // the cached pass survives.
  GraphBuilder builder(4);
  builder.AddWeightedEdge(0, 1, 1.0);
  builder.AddWeightedEdge(1, 3, 1.0);
  builder.AddWeightedEdge(0, 2, 1.5);
  builder.AddWeightedEdge(2, 3, 1.6);
  const CsrGraph before = std::move(builder.Build()).value();
  DependencyOracle oracle(before);
  oracle.set_cache_capacity(8);
  oracle.Dependencies(0);

  GraphBuilder rebuilt(4);
  rebuilt.AddWeightedEdge(0, 1, 1.0);
  rebuilt.AddWeightedEdge(1, 3, 1.0);
  rebuilt.AddWeightedEdge(0, 2, 1.5);
  const CsrGraph after = std::move(rebuilt.Build()).value();
  const std::vector<GraphEdit> edits{
      {GraphEdit::Kind::kRemoveEdge, 2, 3, 1.6}};
  oracle.ApplyGraphDelta(after, edits);
  EXPECT_EQ(oracle.cached_entries(), 1u);
  EXPECT_EQ(oracle.invalidated_entries(), 0u);
  DependencyOracle cold(after);
  EXPECT_EQ(oracle.Dependencies(0), cold.Dependencies(0));
}

TEST(WeightedInvalidationTest, RandomEditScriptsMatchColdOracle) {
  // The lockdown: for random weighted graphs × random edit scripts, every
  // post-delta Dependencies(source) must be bit-identical to a cold
  // oracle on the scratch-rebuilt graph, whether the memo survived or
  // was recomputed.
  DynamicGraph dynamic(
      AssignUniformWeights(MakeConnectedCaveman(5, 8), 1.0, 3.0, 0x15));
  DependencyOracle oracle(dynamic.Csr());
  oracle.set_cache_capacity(64);
  for (int script = 0; script < 20; ++script) {
    // Warm a few memos on the current graph.
    const VertexId n = oracle.graph().num_vertices();
    for (VertexId s : {VertexId{0}, static_cast<VertexId>(n / 2),
                       static_cast<VertexId>(n - 1)}) {
      oracle.Dependencies(s);
    }
    const GraphDelta delta = MakeRandomEditScript(
        dynamic.Csr(), 3, 0xABC + static_cast<std::uint64_t>(script) * 97);
    std::vector<GraphEdit> resolved;
    const Status applied = dynamic.Apply(delta, &resolved);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    oracle.ApplyGraphDelta(dynamic.Csr(), resolved);

    DependencyOracle cold(dynamic.Csr());
    const VertexId m = dynamic.Csr().num_vertices();
    for (VertexId s : {VertexId{0}, static_cast<VertexId>(m / 2),
                       static_cast<VertexId>(m - 1)}) {
      SCOPED_TRACE("script " + std::to_string(script) + " source " +
                   std::to_string(s));
      EXPECT_EQ(oracle.Dependencies(s), cold.Dependencies(s));
    }
  }
}

// ------------------------------------- engine-level equivalence

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

/// Scratch rebuild of `graph` through the ordinary construction path.
CsrGraph RebuildFromEdges(const CsrGraph& graph) {
  GraphBuilder builder(graph.num_vertices());
  for (const CsrGraph::Edge& edge : graph.CollectEdges()) {
    builder.AddWeightedEdge(edge.u, edge.v, edge.weight);
  }
  return std::move(builder.Build()).value();
}

void RunWeightedEquivalenceSweep(unsigned num_threads,
                                 std::uint64_t seed_base, int num_scripts) {
  EngineOptions options;
  options.num_threads = num_threads;

  const CsrGraph start =
      AssignUniformWeights(MakeConnectedCaveman(5, 8), 1.0, 3.0, 0x16);
  BetweennessEngine incremental(start, options);

  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 100;
  request.seed = 0xD11A + seed_base;

  for (int script = 0; script < num_scripts; ++script) {
    const std::uint64_t seed = seed_base * 1'000 + script;
    const GraphDelta delta =
        MakeRandomEditScript(incremental.graph(), 4, seed);
    ASSERT_TRUE(incremental.ApplyDelta(delta).ok());

    const CsrGraph scratch = RebuildFromEdges(incremental.graph());
    BetweennessEngine cold(scratch, options);
    const VertexId n = scratch.num_vertices();
    const std::vector<VertexId> targets{
        static_cast<VertexId>(seed % n),
        static_cast<VertexId>((seed / 7) % n)};
    const auto warm_reports = incremental.EstimateMany(targets, request);
    const auto cold_reports = cold.EstimateMany(targets, request);
    ASSERT_TRUE(warm_reports.ok()) << warm_reports.status().ToString();
    ASSERT_TRUE(cold_reports.ok()) << cold_reports.status().ToString();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      ExpectReportsIdentical(warm_reports.value()[i], cold_reports.value()[i],
                             "script " + std::to_string(script) + " target " +
                                 std::to_string(targets[i]) + " threads " +
                                 std::to_string(num_threads));
    }
  }
}

TEST(WeightedEquivalenceTest, Threads1) {
  RunWeightedEquivalenceSweep(1, 1, 12);
}
TEST(WeightedEquivalenceTest, Threads2) {
  RunWeightedEquivalenceSweep(2, 2, 12);
}
TEST(WeightedEquivalenceTest, Threads4) {
  RunWeightedEquivalenceSweep(4, 3, 12);
}

}  // namespace
}  // namespace mhbc
