#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "centrality/engine.h"
#include "core/mh_chain.h"
#include "exact/brandes.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/ingest.h"
#include "graph/snapshot.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "sp/spd.h"
#include "util/rng.h"

/// \file
/// Directed-graph support across the stack: builder/transpose invariants,
/// hand-computed directed Brandes on DAG/cycle/tournament fixtures,
/// directed-vs-symmetrized divergence, kernel/thread bit-identity on both
/// SPD engines, snapshot v2 round trips plus v1 backward compatibility and
/// unknown-flag rejection, Matrix Market banners, edge-list directedness
/// and mirrored-pair accounting, dynamic single-arc edits, and the
/// directed normalization rule.

namespace mhbc {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- fixtures

/// Deterministic weakly-connected directed graph: a 0→1→...→n-1 spine
/// plus `extra` LCG-drawn arcs. Weighted variants draw weights in [1, 3).
CsrGraph MakeDirectedLcg(VertexId n, std::size_t extra, std::uint64_t seed,
                         bool weighted = false) {
  GraphBuilder builder(n);
  builder.set_directed(true)
      .set_ignore_self_loops(true)
      .set_merge_duplicates(true);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  const auto weight = [&next]() {
    return 1.0 + static_cast<double>(next() % 16) / 8.0;
  };
  for (VertexId v = 1; v < n; ++v) {
    if (weighted) {
      builder.AddWeightedEdge(v - 1, v, weight());
    } else {
      builder.AddEdge(v - 1, v);
    }
  }
  for (std::size_t i = 0; i < extra; ++i) {
    const VertexId u = static_cast<VertexId>(next() % n);
    const VertexId v = static_cast<VertexId>(next() % n);
    if (weighted) {
      builder.AddWeightedEdge(u, v, weight());
    } else {
      builder.AddEdge(u, v);
    }
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

CsrGraph BuildDirected(VertexId n,
                       const std::vector<std::pair<VertexId, VertexId>>& arcs) {
  GraphBuilder builder(n);
  builder.set_directed(true);
  for (const auto& [u, v] : arcs) builder.AddEdge(u, v);
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// Tournament on 4 vertices: the 3-cycle 0→1→2→0 plus sink 3. Raw
/// (ordered-pair) betweenness is {1, 1, 1, 0}: each cycle vertex carries
/// exactly the one length-2 path that closes the cycle.
CsrGraph Tournament4() {
  return BuildDirected(4, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 3}, {2, 3}});
}

/// Structural equality including directedness and the transpose view.
void ExpectDirectedGraphsIdentical(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.weighted(), b.weighted());
  ASSERT_EQ(a.directed(), b.directed());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "out-slice of vertex " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i], nb[i]) << "vertex " << v << " out-slot " << i;
    }
    const auto ia = a.in_neighbors(v);
    const auto ib = b.in_neighbors(v);
    ASSERT_EQ(ia.size(), ib.size()) << "in-slice of vertex " << v;
    for (std::size_t i = 0; i < ia.size(); ++i) {
      EXPECT_EQ(ia[i], ib[i]) << "vertex " << v << " in-slot " << i;
    }
    if (a.weighted()) {
      const auto wa = a.weights(v);
      const auto wb = b.weights(v);
      for (std::size_t i = 0; i < wa.size(); ++i) {
        EXPECT_EQ(wa[i], wb[i]) << "vertex " << v << " weight " << i;
      }
    }
  }
}

// -------------------------------------------------- builder + transpose

TEST(DirectedBuilderTest, ArcCountsAndReciprocalArcsAreDistinct) {
  const CsrGraph g = BuildDirected(3, {{0, 1}, {1, 0}, {1, 2}});
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.num_edges(), 3u);  // arcs, not unordered pairs
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_EQ(g.in_degree(2), 1u);
  EXPECT_EQ(g.raw_adjacency().size(), 3u);
  EXPECT_EQ(g.raw_in_adjacency().size(), 3u);
}

TEST(DirectedBuilderTest, TransposeMatchesOutCsrAndIsSorted) {
  const CsrGraph g = MakeDirectedLcg(120, 400, 0xD1);
  // Every arc u→v appears exactly once in v's in-slice, and in-slices are
  // ascending (the counting-sort transpose preserves source order).
  std::vector<std::vector<VertexId>> expected_in(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) expected_in[v].push_back(u);
  }
  std::uint64_t in_total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto in = g.in_neighbors(v);
    ASSERT_EQ(in.size(), expected_in[v].size()) << "vertex " << v;
    EXPECT_TRUE(std::is_sorted(in.begin(), in.end())) << "vertex " << v;
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(in[i], expected_in[v][i]) << "vertex " << v << " slot " << i;
    }
    in_total += in.size();
  }
  EXPECT_EQ(in_total, g.num_edges());
}

TEST(DirectedBuilderTest, UndirectedInViewAliasesOutView) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  const CsrGraph g = std::move(builder.Build()).value();
  EXPECT_FALSE(g.directed());
  ASSERT_EQ(g.raw_in_adjacency().size(), g.raw_adjacency().size());
  EXPECT_EQ(g.raw_in_adjacency().data(), g.raw_adjacency().data());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.in_degree(v), g.degree(v));
  }
}

// ------------------------------------------------------ exact (Brandes)

TEST(DirectedBrandesTest, PathHandComputed) {
  // 0→1→2→3: pairs (0,2),(0,3) pass through 1; (0,3),(1,3) through 2.
  const CsrGraph g = BuildDirected(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<double> raw = ExactBetweenness(g, Normalization::kNone);
  const std::vector<double> want{0.0, 2.0, 2.0, 0.0};
  EXPECT_EQ(raw, want);
}

TEST(DirectedBrandesTest, CycleHandComputed) {
  // Directed 4-cycle: every source contributes one length-2 and one
  // length-3 path, 3 interior incidences each; symmetry gives raw 3.
  const CsrGraph g = BuildDirected(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const std::vector<double> raw = ExactBetweenness(g, Normalization::kNone);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(raw[v], 3.0) << "vertex " << v;
}

TEST(DirectedBrandesTest, DiamondDagHandComputed) {
  // 0→{1,2}→3: sigma(0→3) = 2, so each middle vertex carries 1/2.
  const CsrGraph g = BuildDirected(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const std::vector<double> raw = ExactBetweenness(g, Normalization::kNone);
  const std::vector<double> want{0.0, 0.5, 0.5, 0.0};
  EXPECT_EQ(raw, want);
}

TEST(DirectedBrandesTest, TournamentHandComputed) {
  const CsrGraph g = Tournament4();
  const std::vector<double> raw = ExactBetweenness(g, Normalization::kNone);
  const std::vector<double> want{1.0, 1.0, 1.0, 0.0};
  EXPECT_EQ(raw, want);
}

TEST(DirectedBrandesTest, UnorderedPairsNormalizationIsRawOnDirected) {
  const CsrGraph g = Tournament4();
  EXPECT_EQ(ExactBetweenness(g, Normalization::kUnorderedPairs),
            ExactBetweenness(g, Normalization::kNone));
  const std::vector<double> paper = ExactBetweenness(g, Normalization::kPaper);
  const std::vector<double> raw = ExactBetweenness(g, Normalization::kNone);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(paper[v], raw[v] / 12.0) << "vertex " << v;  // n(n-1) = 12
  }
}

TEST(DirectedBrandesTest, DirectedDiffersFromSymmetrizedLoad) {
  // Symmetrizing the tournament yields K4 (all betweenness 0); the
  // directed graph scores {1,1,1,0}/12 — orientation must be observable.
  const CsrGraph directed = Tournament4();
  GraphBuilder sym(4);
  sym.set_merge_duplicates(true);
  for (const CsrGraph::Edge& e : directed.CollectEdges()) sym.AddEdge(e.u, e.v);
  const CsrGraph undirected = std::move(sym.Build()).value();
  ASSERT_FALSE(undirected.directed());

  const std::vector<double> ds = ExactBetweenness(directed);
  const std::vector<double> us = ExactBetweenness(undirected);
  ASSERT_EQ(ds.size(), us.size());
  bool any_differ = false;
  for (std::size_t v = 0; v < ds.size(); ++v) any_differ |= ds[v] != us[v];
  EXPECT_TRUE(any_differ)
      << "directed scores collapsed to the symmetrized ones";
}

// --------------------------------------- kernel / thread-count identity

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

TEST(DirectedSpdKernelTest, BfsKernelsBitIdenticalAcrossThreads) {
  const CsrGraph g = MakeDirectedLcg(300, 900, 0xB5);
  const VertexId sources[] = {0, 7, 150};
  for (VertexId source : sources) {
    SpdOptions base;
    base.kernel = SpdKernel::kClassic;
    base.num_threads = 1;
    BfsSpd baseline(g, base);
    baseline.Run(source);
    const ShortestPathDag want = baseline.dag();
    for (SpdKernel kernel : {SpdKernel::kClassic, SpdKernel::kHybrid}) {
      for (unsigned threads : kThreadCounts) {
        SpdOptions options;
        options.kernel = kernel;
        options.num_threads = threads;
        options.parallel_grain = 0;  // force the parallel steps
        BfsSpd engine(g, options);
        engine.Run(source);
        const ShortestPathDag& got = engine.dag();
        const std::string label =
            (kernel == SpdKernel::kClassic ? "classic @" : "hybrid @") +
            std::to_string(threads) + " threads, source " +
            std::to_string(source);
        EXPECT_EQ(got.dist, want.dist) << label;
        EXPECT_EQ(got.sigma, want.sigma) << label;
        EXPECT_EQ(got.order, want.order) << label;
        EXPECT_EQ(got.level_offsets, want.level_offsets) << label;
      }
    }
  }
}

TEST(DirectedSpdKernelTest, DeltaKernelBitIdenticalAcrossThreads) {
  const CsrGraph g = MakeDirectedLcg(250, 700, 0xDE, /*weighted=*/true);
  ASSERT_TRUE(g.weighted());
  const VertexId sources[] = {0, 42, 125};
  for (VertexId source : sources) {
    SpdOptions base;
    base.num_threads = 1;
    DeltaSpd baseline(g, base);
    baseline.Run(source);
    const ShortestPathDag want = baseline.dag();
    for (unsigned threads : kThreadCounts) {
      SpdOptions options;
      options.num_threads = threads;
      options.parallel_grain = 0;
      DeltaSpd engine(g, options);
      engine.Run(source);
      const ShortestPathDag& got = engine.dag();
      const std::string label = "delta @" + std::to_string(threads) +
                                " threads, source " + std::to_string(source);
      EXPECT_EQ(got.wdist, want.wdist) << label;
      EXPECT_EQ(got.sigma, want.sigma) << label;
      EXPECT_EQ(got.order, want.order) << label;
      EXPECT_EQ(got.level_offsets, want.level_offsets) << label;
    }
  }
}

TEST(DirectedSpdKernelTest, ExactScoresThreadInvariant) {
  const CsrGraph g = MakeDirectedLcg(200, 600, 0xE7);
  const std::vector<double> exact_baseline = ExactBetweenness(g);
  const std::vector<double> sharded_baseline =
      BrandesBetweenness(g, Normalization::kPaper, 1);
  for (unsigned threads : kThreadCounts) {
    SpdOptions spd;
    spd.num_threads = threads;
    spd.parallel_grain = 0;
    EXPECT_EQ(ExactBetweenness(g, Normalization::kPaper, spd), exact_baseline)
        << threads << " intra-pass threads";
    EXPECT_EQ(BrandesBetweenness(g, Normalization::kPaper, threads),
              sharded_baseline)
        << threads << " source-parallel threads";
  }
}

// --------------------------------------------------------------- engine

void ExpectSameStatistics(const EstimateReport& got, const EstimateReport& want,
                          const std::string& label) {
  EXPECT_EQ(got.vertex, want.vertex) << label;
  EXPECT_EQ(got.value, want.value) << label;
  EXPECT_EQ(got.samples_used, want.samples_used) << label;
  EXPECT_EQ(got.acceptance_rate, want.acceptance_rate) << label;
  EXPECT_EQ(got.std_error, want.std_error) << label;
  EXPECT_EQ(got.converged, want.converged) << label;
}

TEST(DirectedEngineTest, MhEstimatesThreadInvariant) {
  const CsrGraph g = MakeDirectedLcg(80, 240, 0x5E);
  const std::vector<VertexId> vertices{3, 17, 40, 61, 79};
  EstimateRequest request;
  request.kind = EstimatorKind::kMetropolisHastings;
  request.samples = 250;
  request.seed = 0xD17;

  std::vector<EstimateReport> baseline;
  {
    EngineOptions options;
    options.num_threads = 1;
    BetweennessEngine engine(g, options);
    auto reports = engine.EstimateMany(vertices, request);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    baseline = std::move(reports).value();
  }
  for (unsigned threads : kThreadCounts) {
    EngineOptions options;
    options.num_threads = threads;
    BetweennessEngine engine(g, options);
    auto reports = engine.EstimateMany(vertices, request);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    ASSERT_EQ(reports.value().size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ExpectSameStatistics(reports.value()[i], baseline[i],
                           "MH @" + std::to_string(threads) + " threads");
    }
  }
}

// An engine's ApplyDelta on a directed graph edits arcs, not undirected
// pairs: the post-edit graph stays directed, and the engine (memo carried
// across the edits) answers as a cold engine on the DynamicGraph result.
TEST(DirectedEngineTest, ApplyDeltaKeepsTheGraphDirected) {
  for (const bool weighted : {false, true}) {
    const CsrGraph g = MakeDirectedLcg(60, 150, 0xA9, weighted);
    GraphDelta delta;
    delta.AddEdge(5, 0, weighted ? 1.25 : 1.0);
    delta.RemoveEdge(0, 1);
    DynamicGraph dynamic(g);
    ASSERT_TRUE(dynamic.Apply(delta).ok());
    const CsrGraph after = dynamic.Csr();
    const std::vector<VertexId> vertices{3, 17, 40};
    EstimateRequest request;
    request.samples = 250;
    request.seed = 0xA9;

    BetweennessEngine engine(g);
    ASSERT_TRUE(engine.EstimateMany(vertices, request).ok());
    ASSERT_TRUE(engine.ApplyDelta(delta).ok());
    ExpectDirectedGraphsIdentical(engine.graph(), after);
    BetweennessEngine cold(after);
    auto got = engine.EstimateMany(vertices, request);
    auto want = cold.EstimateMany(vertices, request);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      ExpectSameStatistics(got.value()[i], want.value()[i],
                           weighted ? "weighted" : "unweighted");
    }
  }
}

// ------------------------------------------------------------ proposals

TEST(DirectedProposalTest, DegreeProportionalUsesTotalDegree) {
  // Vertex 4 is isolated; vertex 3 is a pure sink (out-degree 0). The
  // total-degree draw must reach the sink and never the isolate.
  const CsrGraph g =
      BuildDirected(5, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 3}, {2, 3}});
  EXPECT_EQ(ProposalMass(g, ProposalKind::kDegreeProportional, 0), 3.0);
  EXPECT_EQ(ProposalMass(g, ProposalKind::kDegreeProportional, 3), 3.0);
  EXPECT_EQ(ProposalMass(g, ProposalKind::kDegreeProportional, 4), 0.0);

  Rng rng(0xACE);
  std::vector<std::uint64_t> counts(g.num_vertices(), 0);
  for (int i = 0; i < 6000; ++i) {
    const VertexId v = DrawProposal(g, ProposalKind::kDegreeProportional, &rng);
    ASSERT_LT(v, g.num_vertices());
    ++counts[v];
  }
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_GT(counts[v], 0u) << "vertex " << v << " never proposed";
  }
  EXPECT_EQ(counts[4], 0u) << "zero-mass isolate proposed";
}

// ---------------------------------------------------- snapshot fixtures

/// Per-test scratch file under the system temp dir, removed on teardown.
class DirectedFileTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& leaf) {
    const fs::path dir = fs::temp_directory_path() / "mhbc_directed_test";
    fs::create_directories(dir);
    const std::string path = (dir / leaf).string();
    created_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : created_) std::remove(path.c_str());
  }

  std::vector<std::string> created_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Overwrites `len` bytes at `offset`, recomputes the trailing FNV-1a-64
/// checksum, and rewrites the file — the snapshot stays self-consistent
/// so only the patched field is under test.
void PatchSnapshotAndReseal(const std::string& path, std::size_t offset,
                            const void* bytes, std::size_t len) {
  std::string data = ReadFileBytes(path);
  ASSERT_GE(data.size(), offset + len);
  ASSERT_GE(data.size(), sizeof(std::uint64_t));
  std::memcpy(data.data() + offset, bytes, len);
  std::uint64_t hash = 14695981039346656037ull;
  const std::size_t checksum_off = data.size() - sizeof(std::uint64_t);
  for (std::size_t i = 0; i < checksum_off; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  std::memcpy(data.data() + checksum_off, &hash, sizeof(hash));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

// ------------------------------------------------------------ snapshots

TEST_F(DirectedFileTest, DirectedSnapshotRoundTrips) {
  for (const bool weighted : {false, true}) {
    const CsrGraph original = MakeDirectedLcg(90, 260, 0x5A, weighted);
    const std::string path =
        Path(weighted ? "directed_w.mhbc" : "directed.mhbc");
    ASSERT_TRUE(SaveSnapshot(original, path).ok());

    auto info = InspectSnapshot(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().version, kSnapshotFormatVersion);
    EXPECT_TRUE(info.value().directed);
    EXPECT_EQ(info.value().weighted, weighted);
    EXPECT_EQ(info.value().num_edges, original.num_edges());
    EXPECT_TRUE(info.value().checksum_ok);

    auto buffered = LoadSnapshotBuffered(path);
    ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
    ExpectDirectedGraphsIdentical(original, buffered.value());

    auto mapped = LoadSnapshotMapped(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ExpectDirectedGraphsIdentical(original, mapped.value().graph());
  }
}

TEST_F(DirectedFileTest, VersionOneSnapshotStillLoads) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(0, 4);
  const CsrGraph original = std::move(builder.Build()).value();
  const std::string path = Path("v1_compat.mhbc");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());

  // Rewind the header's format version (u32 at byte 8) to 1: the result
  // is byte-for-byte a legacy v1 file (v1 and v2 share the layout; v2
  // only defined flag bit 0x2, which an undirected graph never sets).
  const std::uint32_t v1 = 1;
  PatchSnapshotAndReseal(path, 8, &v1, sizeof(v1));

  auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 1u);
  EXPECT_FALSE(info.value().directed);
  EXPECT_TRUE(info.value().checksum_ok);

  auto buffered = LoadSnapshotBuffered(path);
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_FALSE(buffered.value().directed());
  ExpectDirectedGraphsIdentical(original, buffered.value());

  auto mapped = LoadSnapshotMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectDirectedGraphsIdentical(original, mapped.value().graph());
}

TEST_F(DirectedFileTest, UnknownFlagBitsRejectedByName) {
  const CsrGraph undirected = std::move([] {
    GraphBuilder builder(3);
    builder.AddEdge(0, 1);
    builder.AddEdge(1, 2);
    return builder.Build();
  }().value());

  // A v2 file with an undefined flag bit must name the offending bits.
  const std::string bogus_path = Path("bogus_flag.mhbc");
  ASSERT_TRUE(SaveSnapshot(undirected, bogus_path).ok());
  const std::uint64_t bogus_flags = 0x8;
  PatchSnapshotAndReseal(bogus_path, 16, &bogus_flags, sizeof(bogus_flags));
  auto rejected = LoadSnapshotBuffered(bogus_path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("unknown flag bits"),
            std::string::npos)
      << rejected.status().message();
  EXPECT_NE(rejected.status().message().find("0x8"), std::string::npos)
      << rejected.status().message();

  // The directed bit does not exist in v1: a v1 header carrying it is an
  // unknown-flag error, not a silently-dropped attribute.
  const CsrGraph directed = BuildDirected(3, {{0, 1}, {1, 2}, {2, 0}});
  const std::string v1_path = Path("v1_directed_flag.mhbc");
  ASSERT_TRUE(SaveSnapshot(directed, v1_path).ok());
  const std::uint32_t v1 = 1;
  PatchSnapshotAndReseal(v1_path, 8, &v1, sizeof(v1));
  auto v1_rejected = LoadSnapshotBuffered(v1_path);
  ASSERT_FALSE(v1_rejected.ok());
  EXPECT_NE(v1_rejected.status().message().find("unknown flag bits"),
            std::string::npos)
      << v1_rejected.status().message();
  EXPECT_NE(v1_rejected.status().message().find("0x2"), std::string::npos)
      << v1_rejected.status().message();
  EXPECT_NE(v1_rejected.status().message().find("version 1"),
            std::string::npos)
      << v1_rejected.status().message();
}

// -------------------------------------------------------- Matrix Market

TEST_F(DirectedFileTest, MatrixMarketDirectedGeneralBannerRoundTrips) {
  for (const bool weighted : {false, true}) {
    const CsrGraph original = MakeDirectedLcg(40, 110, 0x33, weighted);
    const std::string path = Path(weighted ? "directed_w.mtx" : "directed.mtx");
    ASSERT_TRUE(WriteMatrixMarket(original, path).ok());

    std::ifstream in(path);
    std::string banner;
    ASSERT_TRUE(std::getline(in, banner));
    EXPECT_EQ(banner, std::string("%%MatrixMarket matrix coordinate ") +
                          (weighted ? "real" : "pattern") + " general");

    auto loaded = LoadMatrixMarket(path, /*directed=*/true);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectDirectedGraphsIdentical(original, loaded.value());
  }
}

TEST_F(DirectedFileTest, MatrixMarketUndirectedOutputByteStable) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  const CsrGraph triangle = std::move(builder.Build()).value();
  const std::string path = Path("triangle.mtx");
  ASSERT_TRUE(WriteMatrixMarket(triangle, path).ok());
  // The undirected dialect predates directed support; pin the exact bytes
  // so directed plumbing can never perturb existing files.
  EXPECT_EQ(ReadFileBytes(path),
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% mhbc graph: n=3 m=3\n"
            "3 3 3\n"
            "2 1\n"
            "3 1\n"
            "3 2\n");
  auto reloaded = LoadMatrixMarket(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectDirectedGraphsIdentical(triangle, reloaded.value());
}

TEST_F(DirectedFileTest, MatrixMarketSymmetricLoadsDirectedAsReciprocal) {
  // A `symmetric` file ingested directed contributes both orientations.
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const CsrGraph undirected = std::move(builder.Build()).value();
  const std::string path = Path("sym_as_directed.mtx");
  ASSERT_TRUE(WriteMatrixMarket(undirected, path).ok());
  auto loaded = LoadMatrixMarket(path, /*directed=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().directed());
  EXPECT_EQ(loaded.value().num_edges(), 4u);  // two arcs per edge
}

// ------------------------------------------------------------ edge list

TEST(DirectedEdgeListTest, MirroredPairStatsAndSymmetrizePolicy) {
  const std::string text = "# comment\n0 1\n1 0\n1 2\n2 2\n";

  EdgeListStats stats;
  EdgeListOptions undirected;
  undirected.stats = &stats;
  {
    std::istringstream in(text);
    auto graph = ParseEdgeList(in, undirected);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    EXPECT_FALSE(graph.value().directed());
    EXPECT_EQ(graph.value().num_edges(), 2u);  // {0,1} folded, {1,2}
  }
  EXPECT_EQ(stats.edge_lines, 4u);
  EXPECT_EQ(stats.self_loop_lines, 1u);
  EXPECT_EQ(stats.mirrored_pairs, 1u);

  EdgeListOptions directed;
  directed.directed = true;
  directed.stats = &stats;
  {
    std::istringstream in(text);
    auto graph = ParseEdgeList(in, directed);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    EXPECT_TRUE(graph.value().directed());
    EXPECT_EQ(graph.value().num_edges(), 3u);  // reciprocal arcs distinct
  }
  EXPECT_EQ(stats.mirrored_pairs, 1u);

  // Refusing to symmetrize only makes sense directed; undirected it is a
  // contradiction the loader must reject rather than silently fold.
  EdgeListOptions contradictory;
  contradictory.symmetrize = false;
  std::istringstream in(text);
  auto rejected = ParseEdgeList(in, contradictory);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("directed"), std::string::npos)
      << rejected.status().message();
}

TEST_F(DirectedFileTest, WriteEdgeListDirectedRoundTrips) {
  const CsrGraph original = MakeDirectedLcg(30, 70, 0x44);
  const std::string path = Path("directed.txt");
  ASSERT_TRUE(WriteEdgeList(original, path).ok());
  {
    std::ifstream in(path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_NE(header.find("directed"), std::string::npos) << header;
  }
  EdgeListOptions options;
  options.directed = true;
  auto loaded = LoadSnapEdgeList(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The loader remaps ids in first-seen order over the written arc
  // stream (CSR order); apply the same permutation to the original and
  // the graphs must match arc for arc.
  std::vector<VertexId> first_seen(original.num_vertices(), kInvalidVertex);
  VertexId next_id = 0;
  const auto assign = [&first_seen, &next_id](VertexId old_id) {
    if (first_seen[old_id] == kInvalidVertex) first_seen[old_id] = next_id++;
  };
  for (const CsrGraph::Edge& e : original.CollectEdges()) {
    assign(e.u);
    assign(e.v);
  }
  ASSERT_EQ(next_id, original.num_vertices());  // fixture has no isolates
  ExpectDirectedGraphsIdentical(ApplyVertexPermutation(original, first_seen),
                                loaded.value());
}

TEST_F(DirectedFileTest, IngestFrontEndPlumbsDirectednessAndMirrorCounts) {
  const std::string path = Path("ingest_directed.txt");
  {
    std::ofstream out(path);
    out << "# tiny fixture\n0 1\n1 0\n1 2\n";
  }
  IngestOptions options;
  options.directed = true;  // no cache_dir: parse fresh, stats populated
  auto source = OpenGraphSource(path, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_TRUE(source.value().directed());
  EXPECT_EQ(source.value().graph().num_edges(), 3u);
  EXPECT_EQ(source.value().mirrored_pairs(), 1u);

  auto folded = OpenGraphSource(path, IngestOptions());
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_FALSE(folded.value().directed());
  EXPECT_EQ(folded.value().graph().num_edges(), 2u);
  EXPECT_EQ(folded.value().mirrored_pairs(), 1u);
}

// -------------------------------------------------------- dynamic graph

TEST(DirectedDynamicGraphTest, SingleArcEditsAndCompact) {
  DynamicGraph dynamic(BuildDirected(4, {{0, 1}, {1, 2}}));
  EXPECT_TRUE(dynamic.directed());
  EXPECT_EQ(dynamic.num_edges(), 2u);

  // Adding the arc 2→0 must not create 0→2.
  ASSERT_TRUE(dynamic.AddEdge(2, 0).ok());
  EXPECT_TRUE(dynamic.HasEdge(2, 0));
  EXPECT_FALSE(dynamic.HasEdge(0, 2));
  EXPECT_EQ(dynamic.num_edges(), 3u);

  // The reciprocal arc is an independent insert, not a duplicate.
  ASSERT_TRUE(dynamic.AddEdge(0, 2).ok());
  EXPECT_EQ(dynamic.num_edges(), 4u);

  // Removing one orientation leaves the other.
  ASSERT_TRUE(dynamic.RemoveEdge(2, 0).ok());
  EXPECT_FALSE(dynamic.HasEdge(2, 0));
  EXPECT_TRUE(dynamic.HasEdge(0, 2));
  EXPECT_EQ(dynamic.num_edges(), 3u);

  dynamic.Compact();
  const CsrGraph& compacted = dynamic.Csr();
  ExpectDirectedGraphsIdentical(compacted,
                                BuildDirected(4, {{0, 1}, {0, 2}, {1, 2}}));
}

// ------------------------------------------------- algos + normalization

TEST(DirectedGraphAlgosTest, ComponentsAreWeaklyConnected) {
  // 0→1←2 is not strongly connected but is one weak component; 3 is
  // isolated.
  const CsrGraph g = BuildDirected(4, {{0, 1}, {2, 1}});
  const ComponentInfo info = ConnectedComponents(g);
  EXPECT_EQ(info.num_components, 2u);
  EXPECT_EQ(info.label[0], info.label[1]);
  EXPECT_EQ(info.label[0], info.label[2]);
  EXPECT_NE(info.label[0], info.label[3]);
  EXPECT_FALSE(IsConnected(g));

  const CsrGraph lcc = ExtractLargestComponent(g);
  EXPECT_TRUE(lcc.directed());
  EXPECT_EQ(lcc.num_vertices(), 3u);
  EXPECT_EQ(lcc.num_edges(), 2u);
}

TEST(DirectedGraphAlgosTest, PermutationPreservesArcsAndUsesTotalDegree) {
  // Total degrees: v0 = 1, v1 = 1, v2 = 2 — the sink outranks the sources
  // only if in-degree counts.
  const CsrGraph g = BuildDirected(3, {{0, 2}, {1, 2}});
  const std::vector<VertexId> perm = DegreeDescendingPermutation(g);
  EXPECT_EQ(perm[2], 0u);

  const CsrGraph relabeled = ApplyVertexPermutation(g, perm);
  EXPECT_TRUE(relabeled.directed());
  EXPECT_EQ(relabeled.num_edges(), 2u);
  for (const CsrGraph::Edge& e : g.CollectEdges()) {
    const auto out = relabeled.neighbors(perm[e.u]);
    EXPECT_TRUE(std::find(out.begin(), out.end(), perm[e.v]) != out.end())
        << "arc " << e.u << "->" << e.v << " lost its orientation";
  }
}

TEST(DirectedNormalizeTest, UnorderedPairsDivisorIsDirectednessAware) {
  std::vector<double> scores{3.0, 4.0};
  NormalizeScores(&scores, Normalization::kUnorderedPairs, 2,
                  /*directed=*/true);
  EXPECT_EQ(scores[0], 3.0);
  EXPECT_EQ(scores[1], 4.0);
  NormalizeScores(&scores, Normalization::kUnorderedPairs, 2,
                  /*directed=*/false);
  EXPECT_EQ(scores[0], 1.5);
  EXPECT_EQ(scores[1], 2.0);
}

}  // namespace
}  // namespace mhbc
