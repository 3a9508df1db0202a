#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "exact/brandes.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sp/bfs_spd.h"
#include "sp/dependency.h"

// Property and determinism tests for the direction-optimizing SPD kernel:
// the hybrid kernel must be observationally identical to the classic
// top-down kernel — bit-identical dist/sigma, the same canonical order and
// level structure, and bit-identical dependency vectors at every α/β
// setting — on every graph family the generators produce.

namespace mhbc {
namespace {

SpdOptions Hybrid(double alpha = 3.0, double beta = 24.0) {
  SpdOptions options;
  options.kernel = SpdKernel::kHybrid;
  options.alpha = alpha;
  options.beta = beta;
  return options;
}

SpdOptions Classic() {
  SpdOptions options;
  options.kernel = SpdKernel::kClassic;
  return options;
}

/// The random-generator zoo the property tests sweep; low- and
/// high-diameter families, hubs, communities, and a disconnected case.
std::vector<CsrGraph> PropertyGraphs() {
  std::vector<CsrGraph> graphs;
  graphs.push_back(MakeBarabasiAlbert(400, 3, 0xE20));
  graphs.push_back(MakeErdosRenyiGnm(300, 900, 0xE20));
  graphs.push_back(MakeErdosRenyiGnp(250, 0.008, 0xE20));  // disconnected-ish
  graphs.push_back(MakeWattsStrogatz(300, 6, 0.1, 0xE20));
  graphs.push_back(MakeConnectedCaveman(8, 12));
  graphs.push_back(MakeGrid(14, 14));
  graphs.push_back(MakeStar(64));
  graphs.push_back(MakeCompleteBipartite(9, 17));
  return graphs;
}

void ExpectDagsIdentical(const ShortestPathDag& a, const ShortestPathDag& b) {
  ASSERT_EQ(a.source, b.source);
  // Bitwise: dist is integral, sigma double — EQ compares bits for finite
  // values either way.
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.level_offsets, b.level_offsets);
}

TEST(SpdKernelTest, HybridMatchesClassicOnGeneratorZoo) {
  for (const CsrGraph& g : PropertyGraphs()) {
    BfsSpd classic(g, Classic());
    BfsSpd hybrid(g, Hybrid());
    const VertexId step = std::max<VertexId>(1, g.num_vertices() / 7);
    for (VertexId s = 0; s < g.num_vertices(); s += step) {
      classic.Run(s);
      hybrid.Run(s);
      SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                   " source=" + std::to_string(s));
      ExpectDagsIdentical(classic.dag(), hybrid.dag());
    }
  }
}

TEST(SpdKernelTest, CanonicalOrderIsAscendingWithinLevels) {
  const CsrGraph g = MakeBarabasiAlbert(500, 4, 0x51);
  for (const SpdOptions& options : {Classic(), Hybrid()}) {
    BfsSpd bfs(g, options);
    bfs.Run(17);
    const ShortestPathDag& dag = bfs.dag();
    ASSERT_GE(dag.num_levels(), 2u);
    ASSERT_EQ(dag.level_offsets.back(), dag.order.size());
    for (std::size_t l = 0; l < dag.num_levels(); ++l) {
      for (std::size_t i = dag.level_offsets[l]; i < dag.level_offsets[l + 1];
           ++i) {
        EXPECT_EQ(dag.dist[dag.order[i]], l);
        if (i > dag.level_offsets[l]) {
          EXPECT_LT(dag.order[i - 1], dag.order[i]);
        }
      }
    }
  }
}

TEST(SpdKernelTest, DependencyVectorsBitIdenticalAcrossAlphaBeta) {
  const CsrGraph g = MakeBarabasiAlbert(600, 3, 0xAB);
  // Baseline: classic kernel (neighbor-rescan backward sweep).
  BfsSpd classic(g, Classic());
  DependencyAccumulator classic_acc(g);
  // Sweep aggressive-to-disabled switching; every setting must reproduce
  // the classic dependency vector bit for bit.
  const double alphas[] = {0.0, 0.25, 1.0, 1.5, 8.0, 1e9};
  const double betas[] = {0.0, 2.0, 24.0, 1e9};
  for (VertexId s : {VertexId{0}, VertexId{7}, VertexId{599}}) {
    classic.Run(s);
    const std::vector<double> baseline = classic_acc.Accumulate(classic);
    for (double alpha : alphas) {
      for (double beta : betas) {
        BfsSpd hybrid(g, Hybrid(alpha, beta));
        DependencyAccumulator acc(g);
        hybrid.Run(s);
        const std::vector<double>& deltas = acc.Accumulate(hybrid);
        ASSERT_EQ(deltas.size(), baseline.size());
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          ASSERT_EQ(deltas[v], baseline[v])
              << "alpha=" << alpha << " beta=" << beta << " s=" << s
              << " v=" << v;
        }
      }
    }
  }
}

TEST(SpdKernelTest, ForcedBottomUpIsCorrectOnClosedForms) {
  // alpha=1e9 switches to bottom-up as soon as the frontier has any edges.
  const SpdOptions forced = Hybrid(/*alpha=*/1e9, /*beta=*/0.0);
  {
    const CsrGraph g = MakeStar(40);
    BfsSpd bfs(g, forced);
    bfs.Run(5);  // leaf source: hub at 1, all other leaves at 2
    EXPECT_EQ(bfs.dag().dist[0], 1u);
    EXPECT_EQ(bfs.dag().dist[17], 2u);
    EXPECT_EQ(bfs.dag().sigma[17], 1u);
    EXPECT_GT(bfs.last_stats().bottom_up_levels, 0u);
  }
  {
    const CsrGraph g = MakeCycle(9);
    BfsSpd bfs(g, forced);
    bfs.Run(0);
    EXPECT_EQ(bfs.dag().dist[4], 4u);
    EXPECT_EQ(bfs.dag().dist[5], 4u);
    EXPECT_EQ(bfs.dag().sigma[4], 1u);
  }
  {
    // K_{2,3} from a B-side vertex: two paths to each other B vertex.
    const CsrGraph g = MakeCompleteBipartite(2, 3);
    BfsSpd bfs(g, forced);
    bfs.Run(2);
    EXPECT_EQ(bfs.dag().dist[3], 2u);
    EXPECT_EQ(bfs.dag().sigma[3], 2u);
  }
}

TEST(SpdKernelTest, ExactScoresIdenticalAcrossKernels) {
  const CsrGraph g = MakeWattsStrogatz(200, 6, 0.08, 0x77);
  const std::vector<double> classic =
      ExactBetweenness(g, Normalization::kPaper, Classic());
  const std::vector<double> hybrid =
      ExactBetweenness(g, Normalization::kPaper, Hybrid());
  EXPECT_EQ(classic, hybrid);
  const std::vector<double> parallel_hybrid =
      BrandesBetweenness(g, Normalization::kPaper, 4, Hybrid());
  const std::vector<double> parallel_classic =
      BrandesBetweenness(g, Normalization::kPaper, 4, Classic());
  EXPECT_EQ(parallel_classic, parallel_hybrid);
}

TEST(SpdKernelTest, DirectionSwitchesHappenOnLowDiameterGraphs) {
  // A BA graph is the paper's low-diameter regime: the default heuristics
  // must actually take bottom-up levels there (otherwise the hybrid kernel
  // silently degrades to classic and the perf claim is vacuous).
  const CsrGraph g = MakeBarabasiAlbert(4000, 4, 0x99);
  BfsSpd hybrid(g, Hybrid());
  hybrid.Run(0);
  EXPECT_GT(hybrid.last_stats().bottom_up_levels, 0u);
  EXPECT_GT(hybrid.last_stats().direction_switches, 0u);
  // And it must examine strictly fewer edges than the classic kernel.
  BfsSpd classic(g, Classic());
  classic.Run(0);
  EXPECT_LT(hybrid.last_stats().edges_examined,
            classic.last_stats().edges_examined);
}

// Regression: degenerate graphs (zero edges, single vertex) must take the
// classic path without ever touching — or allocating — the hybrid bitmap
// scratch, independent of any graph statistics.
TEST(SpdKernelTest, DegenerateGraphsSkipHybridScratch) {
  {
    GraphBuilder builder(4);  // four isolated vertices, zero edges
    const CsrGraph g = std::move(builder.Build()).value();
    BfsSpd bfs(g, Hybrid());
    bfs.Run(2);
    EXPECT_FALSE(bfs.hybrid_scratch_allocated());
    EXPECT_TRUE(bfs.dag().parent_run.empty());
    EXPECT_EQ(bfs.dag().num_reached(), 1u);
    EXPECT_EQ(bfs.dag().dist[2], 0u);
    EXPECT_EQ(bfs.dag().sigma[2], 1u);
    EXPECT_EQ(bfs.dag().dist[0], kUnreachedDistance);
    // The dependency sweep must also be well-defined on the degenerate dag.
    DependencyAccumulator acc(g);
    const std::vector<double>& deltas = acc.Accumulate(bfs);
    for (double d : deltas) EXPECT_EQ(d, 0.0);
  }
  {
    GraphBuilder builder(1);
    const CsrGraph g = std::move(builder.Build()).value();
    BfsSpd bfs(g, Hybrid());
    bfs.Run(0);
    EXPECT_FALSE(bfs.hybrid_scratch_allocated());
    EXPECT_EQ(bfs.dag().num_reached(), 1u);
    EXPECT_EQ(bfs.dag().num_levels(), 1u);
  }
  // Contrast: a real graph does allocate the scratch.
  {
    const CsrGraph g = MakePath(8);
    BfsSpd bfs(g, Hybrid());
    bfs.Run(0);
    EXPECT_TRUE(bfs.hybrid_scratch_allocated());
  }
}

SpdOptions WithThreads(SpdOptions options, unsigned threads,
                       std::uint64_t grain = 0) {
  options.num_threads = threads;
  // grain 0 forces every level through the parallel path, so small test
  // graphs actually exercise the sharded steps.
  options.parallel_grain = grain;
  return options;
}

/// One level's SPD edges as (child, parent) pairs, ascending.
using EdgeSlice = std::vector<std::pair<VertexId, VertexId>>;

/// The level edge slices of `dag`, each sorted into an EdgeSlice, after
/// checking what a slice promises as a sequence: its offsets pair with
/// level_offsets, every edge runs from level l - 1 into level l, and each
/// parent's children ascend (the sweep's fold order).
std::vector<EdgeSlice> CanonicalSlices(const ShortestPathDag& dag) {
  EXPECT_EQ(dag.edge_offsets.size(), dag.level_offsets.size());
  std::vector<EdgeSlice> slices;
  std::vector<VertexId> last_child(dag.dist.size(), kInvalidVertex);
  for (std::size_t l = 0; l < dag.num_levels(); ++l) {
    EdgeSlice slice;
    for (const SpdEdge& edge : dag.level_edges(l)) {
      EXPECT_EQ(dag.dist[edge.child], l) << "edge into " << edge.child;
      EXPECT_EQ(dag.dist[edge.parent] + 1, l) << "edge from " << edge.parent;
      if (last_child[edge.parent] != kInvalidVertex) {
        EXPECT_LT(last_child[edge.parent], edge.child)
            << "children of " << edge.parent << " out of order";
      }
      last_child[edge.parent] = edge.child;
      slice.emplace_back(edge.child, edge.parent);
    }
    std::sort(slice.begin(), slice.end());
    slices.push_back(std::move(slice));
  }
  return slices;
}

/// Two passes recorded the same SPD edges into every level (as sets; the
/// slices' sequences may differ between kernels and thread counts).
void ExpectEdgeSlicesEquivalent(const ShortestPathDag& a,
                                const ShortestPathDag& b) {
  EXPECT_EQ(CanonicalSlices(a), CanonicalSlices(b));
}

// ------------------------------------------------------ reference BFS

/// One pass computed the plain way, sharing no code with BfsSpd: a FIFO
/// BFS over out-edges for the distances, then every level std::sort-ed,
/// sigma folded over each vertex's in-edge parents in ascending id, and
/// the textbook backward sweep (levels deepest-first, ascending id within
/// a level, ascending parents) for the dependencies. level_edges[l] holds
/// the SPD edges into level l as (child, parent) pairs, ascending.
struct ReferencePass {
  std::vector<std::uint32_t> dist;
  std::vector<SigmaCount> sigma;
  std::vector<VertexId> order;
  std::vector<std::size_t> level_offsets;
  std::vector<std::vector<VertexId>> preds;
  std::vector<EdgeSlice> level_edges;
  std::vector<double> delta;
};

ReferencePass ReferenceBfs(const CsrGraph& g, VertexId source) {
  const VertexId n = g.num_vertices();
  ReferencePass ref;
  ref.dist.assign(n, kUnreachedDistance);
  ref.sigma.assign(n, 0);
  ref.preds.resize(n);
  ref.delta.assign(n, 0.0);
  ref.dist[source] = 0;
  ref.order.push_back(source);
  for (std::size_t head = 0; head < ref.order.size(); ++head) {
    const VertexId u = ref.order[head];
    for (VertexId v : g.neighbors(u)) {
      if (ref.dist[v] == kUnreachedDistance) {
        ref.dist[v] = ref.dist[u] + 1;
        ref.order.push_back(v);
      }
    }
  }
  // FIFO order visits the levels one after another; sort each slice.
  for (std::size_t i = 0; i < ref.order.size(); ++i) {
    if (i == 0 || ref.dist[ref.order[i]] != ref.dist[ref.order[i - 1]]) {
      ref.level_offsets.push_back(i);
    }
  }
  ref.level_offsets.push_back(ref.order.size());
  for (std::size_t l = 0; l + 1 < ref.level_offsets.size(); ++l) {
    std::sort(ref.order.begin() + static_cast<std::ptrdiff_t>(
                                      ref.level_offsets[l]),
              ref.order.begin() + static_cast<std::ptrdiff_t>(
                                      ref.level_offsets[l + 1]));
  }
  ref.sigma[source] = 1;
  for (VertexId v : ref.order) {
    if (v == source) continue;
    SigmaCount sv = 0;
    for (VertexId u : g.in_neighbors(v)) {  // CSR slices are ascending
      if (ref.dist[u] != kUnreachedDistance &&
          ref.dist[u] + 1 == ref.dist[v]) {
        sv += ref.sigma[u];
        ref.preds[v].push_back(u);
      }
    }
    ref.sigma[v] = sv;
  }
  for (std::size_t l = 0; l + 1 < ref.level_offsets.size(); ++l) {
    EdgeSlice& slice = ref.level_edges.emplace_back();
    for (std::size_t i = ref.level_offsets[l]; i < ref.level_offsets[l + 1];
         ++i) {
      const VertexId v = ref.order[i];
      for (VertexId u : ref.preds[v]) slice.emplace_back(v, u);
    }
  }
  for (std::size_t l = ref.level_offsets.size() - 1; l-- > 0;) {
    for (std::size_t i = ref.level_offsets[l]; i < ref.level_offsets[l + 1];
         ++i) {
      const VertexId w = ref.order[i];
      const double coeff = (1.0 + ref.delta[w]) / ref.sigma[w];
      for (VertexId v : ref.preds[w]) ref.delta[v] += ref.sigma[v] * coeff;
    }
  }
  ref.delta[source] = 0.0;
  return ref;
}

/// Bitwise comparison of a kernel's pass (and its dependency sweep)
/// against the reference, and of its level edge slices as sets.
void ExpectMatchesReference(const BfsSpd& bfs, const std::vector<double>& delta,
                            const ReferencePass& ref) {
  const ShortestPathDag& dag = bfs.dag();
  EXPECT_EQ(dag.dist, ref.dist);
  EXPECT_EQ(dag.sigma, ref.sigma);
  EXPECT_EQ(dag.order, ref.order);
  EXPECT_EQ(dag.level_offsets, ref.level_offsets);
  EXPECT_EQ(delta, ref.delta);
  EXPECT_EQ(CanonicalSlices(dag), ref.level_edges);
}

/// A relabeled broom: a hub (id 0) joined to 64 parallel paths of
/// `length` vertices. The id space past the hub is cut into 64 blocks of
/// 4096 ids; vertex i of path j gets offset i in block j when i is even
/// and in block 63 - j when i is odd, and the ids past the paths' ends
/// stay isolated. From the hub, every level holds 64 ids 4096 apart: 63
/// bitmap words per id over the whole level, and at least 32 over any
/// range segment holding two or more of them, so these levels take the
/// sort fallback with room to spare. Odd levels are discovered in
/// descending id order, so a missing sort shows.
CsrGraph MakeStridedBroom(VertexId length) {
  constexpr VertexId kPaths = 64;
  constexpr VertexId kStride = 4096;
  const auto id = [](VertexId j, VertexId i) {
    const VertexId block = i % 2 == 0 ? j : kPaths - 1 - j;
    return 1 + block * kStride + i;
  };
  GraphBuilder builder(1 + kPaths * kStride);
  for (VertexId j = 0; j < kPaths; ++j) {
    builder.AddEdge(0, id(j, 0));
    for (VertexId i = 0; i + 1 < length; ++i) {
      builder.AddEdge(id(j, i), id(j, i + 1));
    }
  }
  return std::move(builder.Build()).value();
}

TEST(SpdKernelTest, KernelsMatchPlainBfsReferenceOnEveryLevelShape) {
  // The canonical order is produced by the kernels' shared level
  // canonicalization, so classic-vs-hybrid agreement alone cannot catch a
  // bug in it. This pins both kernels, sequential and sharded, to an
  // independent FIFO BFS on graphs that drive every branch: small levels
  // and single-id range segments (the grid, BA levels near the source),
  // one level of n-1 ids (the star from its hub, source 0; 300 is not a
  // multiple of 64), dense multi-word levels (BA, 1000 vertices), levels
  // too sparse for the bitmap (the strided broom from its hub), and a
  // directed graph (top-down over out-edges, parents over in-edges). The
  // level edge slices must hold exactly the reference's SPD edges, level
  // by level, with each parent's children ascending.
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  graphs.emplace_back("grid", MakeGrid(9, 23));
  graphs.emplace_back("star", MakeStar(300));
  graphs.emplace_back("ba", MakeBarabasiAlbert(1000, 3, 0x1E7));
  graphs.emplace_back("strided-broom", MakeStridedBroom(300));
  graphs.emplace_back("directed", MakeRandomDirected(700, 4000, 0xD1));
  for (const auto& [name, g] : graphs) {
    const VertexId n = g.num_vertices();
    const std::vector<VertexId> sources = {0, n / 3, n - 1};
    std::vector<ReferencePass> refs;
    for (VertexId s : sources) refs.push_back(ReferenceBfs(g, s));
    for (const SpdOptions& base : {Classic(), Hybrid()}) {
      for (unsigned threads : {1u, 4u}) {
        BfsSpd bfs(g, WithThreads(base, threads));
        DependencyAccumulator acc(g, bfs.intra_pool(), /*parallel_grain=*/0);
        for (std::size_t i = 0; i < sources.size(); ++i) {
          SCOPED_TRACE(name + " kernel=" +
                       (base.kernel == SpdKernel::kClassic ? "classic"
                                                           : "hybrid") +
                       " threads=" + std::to_string(threads) +
                       " source=" + std::to_string(sources[i]));
          bfs.Run(sources[i]);
          ExpectMatchesReference(bfs, acc.Accumulate(bfs), refs[i]);
        }
      }
    }
  }
}

TEST(SpdKernelTest, IntraPassParallelMatchesSequentialOnGeneratorZoo) {
  // The tentpole determinism sweep: both kernels, 2 and 4 intra-pass
  // threads, grain 0 (every level fans out) — dist/sigma/order/levels,
  // predecessor lists, and dependency vectors must be bit-identical to
  // the sequential kernel on every graph family.
  for (const CsrGraph& g : PropertyGraphs()) {
    for (const SpdOptions& base : {Classic(), Hybrid()}) {
      BfsSpd sequential(g, base);
      DependencyAccumulator sequential_acc(g);
      for (unsigned threads : {2u, 4u}) {
        BfsSpd parallel(g, WithThreads(base, threads));
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
          ExpectEdgeSlicesEquivalent(sequential.dag(), parallel.dag());
          const std::vector<double> baseline =
              sequential_acc.Accumulate(sequential);
          const std::vector<double>& deltas =
              parallel_acc.Accumulate(parallel);
          ASSERT_EQ(deltas, baseline);
        }
      }
    }
  }
}

TEST(SpdKernelTest, IntraPassParallelShardMergeEdgeCases) {
  // Frontier shapes that stress the shard merge: single-vertex levels
  // (path), one giant level behind a hub (star), wide diagonal frontiers
  // (grid), and a tiny graph where most shards and ranges are empty.
  std::vector<CsrGraph> graphs;
  graphs.push_back(MakePath(70));
  graphs.push_back(MakeStar(130));
  graphs.push_back(MakeGrid(11, 17));
  graphs.push_back(MakeCycle(3));
  for (const CsrGraph& g : graphs) {
    for (const SpdOptions& base : {Classic(), Hybrid(),
                                   Hybrid(/*alpha=*/1e9, /*beta=*/0.0)}) {
      BfsSpd sequential(g, base);
      for (unsigned threads : {1u, 2u, 4u}) {
        BfsSpd parallel(g, WithThreads(base, threads));
        for (VertexId s :
             {VertexId{0}, static_cast<VertexId>(g.num_vertices() / 2),
              static_cast<VertexId>(g.num_vertices() - 1)}) {
          SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) + " threads=" +
                       std::to_string(threads) + " source=" +
                       std::to_string(s));
          sequential.Run(s);
          parallel.Run(s);
          ExpectDagsIdentical(sequential.dag(), parallel.dag());
          ExpectEdgeSlicesEquivalent(sequential.dag(), parallel.dag());
        }
      }
    }
  }
}

TEST(SpdKernelTest, ParallelGrainOnlyChangesWorkNeverResults) {
  // Sweeping the grain moves levels between the sequential and parallel
  // steps; every setting must agree bit-for-bit (including stats, which
  // count examined edges identically on both paths).
  const CsrGraph g = MakeBarabasiAlbert(500, 3, 0x61);
  BfsSpd baseline(g, Hybrid());
  for (std::uint64_t grain : {std::uint64_t{0}, std::uint64_t{64},
                              std::uint64_t{100000}}) {
    BfsSpd swept(g, WithThreads(Hybrid(), 4, grain));
    for (VertexId s : {VertexId{0}, VertexId{250}}) {
      baseline.Run(s);
      swept.Run(s);
      SCOPED_TRACE("grain=" + std::to_string(grain) + " source=" +
                   std::to_string(s));
      ExpectDagsIdentical(baseline.dag(), swept.dag());
      EXPECT_EQ(baseline.last_stats().edges_examined,
                swept.last_stats().edges_examined);
      EXPECT_EQ(baseline.last_stats().bottom_up_levels,
                swept.last_stats().bottom_up_levels);
    }
  }
}

TEST(SpdKernelTest, IntraPassZeroThreadsStandaloneIsSequential) {
  // num_threads == 0 means "inherit"; standalone engines have nothing to
  // inherit from and must stay sequential (no pool).
  const CsrGraph g = MakePath(10);
  BfsSpd inherit(g, Hybrid());
  EXPECT_EQ(inherit.intra_pool(), nullptr);
  BfsSpd one(g, WithThreads(Hybrid(), 1));
  EXPECT_EQ(one.intra_pool(), nullptr);
  BfsSpd two(g, WithThreads(Hybrid(), 2));
  EXPECT_NE(two.intra_pool(), nullptr);
}

TEST(SpdKernelTest, StatsAccumulateAcrossRuns) {
  const CsrGraph g = MakeBarabasiAlbert(300, 3, 0x31);
  BfsSpd bfs(g, Hybrid());
  bfs.Run(0);
  const std::uint64_t first = bfs.last_stats().edges_examined;
  EXPECT_GT(first, 0u);
  EXPECT_EQ(bfs.total_stats().edges_examined, first);
  bfs.Run(1);
  EXPECT_EQ(bfs.total_stats().edges_examined,
            first + bfs.last_stats().edges_examined);
}

TEST(SpdKernelTest, ReuseAcrossSourcesResetsHybridState) {
  // Alternating sources on one engine: every pass must be identical to a
  // fresh engine's pass (the reset covers dist/sigma/bitmap/preds). A BA
  // component and a disjoint 5-vertex path make Run switch reset modes: a
  // pass from the component reaches nearly all of n (the next Run resets
  // with whole-array fills), a pass from the path reaches 5 vertices (the
  // next Run resets through the touched list). The 4-thread engines keep
  // the parallel scratch in play; the forced bottom-up kernel reads the
  // visited bitmap even on the path, so a bit the reset missed shows.
  const CsrGraph ba = MakeBarabasiAlbert(500, 3, 0xB0);
  GraphBuilder builder(505);
  for (VertexId u = 0; u < ba.num_vertices(); ++u) {
    for (VertexId v : ba.neighbors(u)) {
      if (u < v) builder.AddEdge(u, v);
    }
  }
  for (VertexId v = 500; v + 1 < 505; ++v) builder.AddEdge(v, v + 1);
  const CsrGraph g = std::move(builder.Build()).value();
  for (const SpdOptions& base : {Classic(), Hybrid(),
                                 Hybrid(/*alpha=*/1e9, /*beta=*/0.0)}) {
    for (unsigned threads : {1u, 4u}) {
      BfsSpd reused(g, WithThreads(base, threads));
      for (VertexId s : {VertexId{0}, VertexId{502}, VertexId{250},
                         VertexId{504}, VertexId{503}, VertexId{499},
                         VertexId{7}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " source=" + std::to_string(s));
        reused.Run(s);
        BfsSpd fresh(g, base);
        fresh.Run(s);
        ExpectDagsIdentical(reused.dag(), fresh.dag());
        ExpectEdgeSlicesEquivalent(reused.dag(), fresh.dag());
      }
    }
  }
}

}  // namespace
}  // namespace mhbc
