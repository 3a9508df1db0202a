#include "graph/ingest.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "datasets/registry.h"
#include "graph/generators.h"
#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"

namespace mhbc {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed recursively on teardown.
class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mhbc_ingest_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& leaf) { return (dir_ / leaf).string(); }
  std::string CacheDir() { return (dir_ / "cache").string(); }

  fs::path dir_;
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
      EXPECT_EQ(na[i], nb[i]) << "vertex " << v << " slot " << i;
      if (a.weighted()) {
        EXPECT_EQ(a.weights(v)[i], b.weights(v)[i])
            << "vertex " << v << " slot " << i;
      }
    }
  }
}

CsrGraph WeightedDemo() {
  GraphBuilder builder(6);
  builder.AddWeightedEdge(0, 1, 1.5);
  builder.AddWeightedEdge(1, 2, 0.25);
  builder.AddWeightedEdge(2, 3, 4.0);
  builder.AddWeightedEdge(3, 0, 2.0);
  builder.AddWeightedEdge(3, 4, 1.0);
  builder.AddWeightedEdge(4, 5, 8.5);
  auto built = builder.Build();
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

TEST_F(IngestTest, SniffsFormats) {
  const std::string snapshot = Path("g.mhbc");
  ASSERT_TRUE(SaveSnapshot(MakeGrid(4, 4), snapshot).ok());
  EXPECT_EQ(SniffGraphFormat(snapshot), GraphFileFormat::kSnapshot);
  EXPECT_EQ(SniffGraphFormat(Path("g.mtx")), GraphFileFormat::kMatrixMarket);
  EXPECT_EQ(SniffGraphFormat(Path("g.mm")), GraphFileFormat::kMatrixMarket);

  // Content sniffing without a telling extension.
  const std::string disguised = Path("disguised.dat");
  fs::copy_file(snapshot, disguised);
  EXPECT_EQ(SniffGraphFormat(disguised), GraphFileFormat::kSnapshot);
  const std::string mm = Path("banner.dat");
  std::ofstream(mm) << "%%MatrixMarket matrix coordinate pattern general\n";
  EXPECT_EQ(SniffGraphFormat(mm), GraphFileFormat::kMatrixMarket);
  const std::string edges = Path("edges.dat");
  std::ofstream(edges) << "0 1\n1 2\n";
  EXPECT_EQ(SniffGraphFormat(edges), GraphFileFormat::kWeightedEdgeList);
}

TEST_F(IngestTest, OpensEdgeListWithAutoWeights) {
  const std::string path = Path("weighted.txt");
  std::ofstream(path) << "0 1 2.5\n1 2 0.5\n2 0\n";
  auto source = OpenGraphSource(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source.value().source_format(), GraphFileFormat::kWeightedEdgeList);
  EXPECT_TRUE(source.value().graph().weighted());
  EXPECT_EQ(source.value().graph().EdgeWeight(0, 1), 2.5);
  EXPECT_FALSE(source.value().cache_hit());
  EXPECT_FALSE(source.value().zero_copy());
}

TEST_F(IngestTest, MatrixMarketRoundTrip) {
  const CsrGraph original = WeightedDemo();
  const std::string path = Path("demo.mtx");
  ASSERT_TRUE(WriteMatrixMarket(original, path).ok());
  auto loaded = LoadMatrixMarket(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsIdentical(original, loaded.value());

  // Unweighted graphs round-trip through the pattern field.
  const CsrGraph grid = MakeGrid(5, 5);
  const std::string pattern_path = Path("grid.mtx");
  ASSERT_TRUE(WriteMatrixMarket(grid, pattern_path).ok());
  auto pattern = LoadMatrixMarket(pattern_path);
  ASSERT_TRUE(pattern.ok());
  EXPECT_FALSE(pattern.value().weighted());
  ExpectGraphsIdentical(grid, pattern.value());
}

TEST_F(IngestTest, MatrixMarketGeneralMirrorsAndSelfLoopsMerge) {
  const std::string path = Path("general.mtx");
  std::ofstream(path) << "%%MatrixMarket matrix coordinate pattern general\n"
                      << "% both triangles listed, plus a self-loop\n"
                      << "3 3 5\n"
                      << "1 2\n2 1\n2 3\n3 2\n2 2\n";
  auto loaded = LoadMatrixMarket(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_vertices(), 3u);
  EXPECT_EQ(loaded.value().num_edges(), 2u);
}

TEST_F(IngestTest, MatrixMarketRejectsMalformedInput) {
  const std::string no_banner = Path("nobanner.mtx");
  std::ofstream(no_banner) << "3 3 1\n1 2\n";
  EXPECT_FALSE(LoadMatrixMarket(no_banner).ok());

  const std::string rectangular = Path("rect.mtx");
  std::ofstream(rectangular)
      << "%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n";
  EXPECT_FALSE(LoadMatrixMarket(rectangular).ok());

  const std::string short_file = Path("short.mtx");
  std::ofstream(short_file)
      << "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 2\n";
  auto result = LoadMatrixMarket(short_file);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("promises"), std::string::npos);

  const std::string complex_field = Path("complex.mtx");
  std::ofstream(complex_field)
      << "%%MatrixMarket matrix coordinate complex general\n3 3 1\n1 2 1 0\n";
  EXPECT_FALSE(LoadMatrixMarket(complex_field).ok());

  // A size line whose vertex count one entry cannot reach is refused before
  // anything is sized from it (4e9 vertices would be tens of GB).
  const std::string header =
      "%%MatrixMarket matrix coordinate pattern general\n";
  const auto load = [&](const std::string& leaf, const std::string& body) {
    std::ofstream(Path(leaf)) << header << body;
    return LoadMatrixMarket(Path(leaf));
  };
  const auto huge = load("huge.mtx", "4000000000 4000000000 1\n1 2\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge.status().message().find("line 2: size line"),
            std::string::npos)
      << huge.status().message();
  const std::uint64_t boundary = 2 + kMatrixMarketIsolatedVertexAllowance;
  const std::string past = std::to_string(boundary + 1);
  const auto over = load("over.mtx", past + " " + past + " 1\n1 2\n");
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("size line"), std::string::npos);
  // 2 x entries saturates instead of wrapping: 2^63 entries would wrap to
  // 0, so the count below passes the size check and the file is refused
  // for holding one entry, not for its size.
  const std::string wraps =
      std::to_string(kMatrixMarketIsolatedVertexAllowance + 5);
  const auto saturated =
      load("wrap.mtx", wraps + " " + wraps + " 9223372036854775808\n1 2\n");
  ASSERT_FALSE(saturated.ok());
  EXPECT_NE(saturated.status().message().find("promises"), std::string::npos)
      << saturated.status().message();

  // At the allowance the file loads: two endpoints plus isolated vertices.
  const std::string at = std::to_string(boundary);
  const auto edge = load("edge.mtx", at + " " + at + " 1\n1 2\n");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge.value().num_vertices(), boundary);
  EXPECT_EQ(edge.value().num_edges(), 1u);
}

TEST_F(IngestTest, CacheDirServesSnapshotOnSecondOpen) {
  const std::string path = Path("net.txt");
  ASSERT_TRUE(WriteEdgeList(MakeBarabasiAlbert(300, 2, 0xCAC4E), path).ok());
  // Baseline with the text loader's first-seen id remap applied, so it is
  // comparable with what the pipeline serves.
  auto baseline = LoadSnapEdgeList(path, {});
  ASSERT_TRUE(baseline.ok());

  IngestOptions options;
  options.cache_dir = CacheDir();
  auto first = OpenGraphSource(path, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().cache_hit());
  // The freshly written cache entry already serves the first open
  // zero-copy, and names the snapshot it created.
  EXPECT_TRUE(first.value().zero_copy());
  ASSERT_FALSE(first.value().snapshot_path().empty());
  EXPECT_TRUE(fs::exists(first.value().snapshot_path()));

  auto second = OpenGraphSource(path, options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit());
  EXPECT_TRUE(second.value().zero_copy());
  ExpectGraphsIdentical(first.value().graph(), second.value().graph());
  ExpectGraphsIdentical(baseline.value(), second.value().graph());
}

TEST_F(IngestTest, CorruptCacheEntryIsRebuiltNotFatal) {
  const std::string path = Path("net.txt");
  ASSERT_TRUE(WriteEdgeList(MakeGrid(12, 12), path).ok());
  auto baseline = LoadSnapEdgeList(path, {});
  ASSERT_TRUE(baseline.ok());
  IngestOptions options;
  options.cache_dir = CacheDir();
  auto first = OpenGraphSource(path, options);
  ASSERT_TRUE(first.ok());
  const std::string snapshot = first.value().snapshot_path();

  // Vandalize the cached snapshot; the next open must rebuild, not fail.
  std::ofstream(snapshot, std::ios::trunc) << "garbage";
  auto second = OpenGraphSource(path, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().cache_hit());
  ExpectGraphsIdentical(baseline.value(), second.value().graph());

  auto third = OpenGraphSource(path, options);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.value().cache_hit());
}

TEST_F(IngestTest, CacheKeyCoversPipelineOptions) {
  // A connected core plus a 2-vertex satellite, so LCC extraction matters.
  const std::string path = Path("twocomp.txt");
  std::ofstream(path) << "0 1\n1 2\n2 0\n3 4\n";
  IngestOptions plain;
  plain.cache_dir = CacheDir();
  IngestOptions lcc = plain;
  lcc.largest_component_only = true;
  auto full = OpenGraphSource(path, plain);
  auto core = OpenGraphSource(path, lcc);
  ASSERT_TRUE(full.ok() && core.ok());
  EXPECT_EQ(full.value().graph().num_vertices(), 5u);
  EXPECT_EQ(core.value().graph().num_vertices(), 3u);
  EXPECT_NE(full.value().snapshot_path(), core.value().snapshot_path());

  // Each variant hits its own entry on re-open.
  auto full2 = OpenGraphSource(path, plain);
  auto core2 = OpenGraphSource(path, lcc);
  ASSERT_TRUE(full2.ok() && core2.ok());
  EXPECT_TRUE(full2.value().cache_hit());
  EXPECT_TRUE(core2.value().cache_hit());
  EXPECT_EQ(core2.value().graph().num_vertices(), 3u);
}

TEST_F(IngestTest, OpensSnapshotDirectly) {
  const CsrGraph original = MakeConnectedCaveman(4, 8);
  const std::string path = Path("direct.mhbc");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto source = OpenGraphSource(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source.value().source_format(), GraphFileFormat::kSnapshot);
  EXPECT_TRUE(source.value().zero_copy());
  EXPECT_EQ(source.value().snapshot_path(), path);
  ExpectGraphsIdentical(original, source.value().graph());
}

TEST_F(IngestTest, DegreeRelabelPreservesWeightedStructure) {
  const CsrGraph original = WeightedDemo();
  const std::vector<VertexId> new_id = DegreeDescendingPermutation(original);

  // The permutation is a bijection that sorts degrees descending.
  std::vector<bool> seen(original.num_vertices(), false);
  for (VertexId id : new_id) {
    ASSERT_LT(id, original.num_vertices());
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
  const CsrGraph relabeled = ApplyVertexPermutation(original, new_id);
  for (VertexId v = 1; v < relabeled.num_vertices(); ++v) {
    EXPECT_GE(relabeled.degree(v - 1), relabeled.degree(v));
  }

  // Adjacency and weights transport through the bijection exactly.
  ASSERT_EQ(relabeled.num_edges(), original.num_edges());
  ASSERT_TRUE(relabeled.weighted());
  for (const CsrGraph::Edge& e : original.CollectEdges()) {
    ASSERT_TRUE(relabeled.HasEdge(new_id[e.u], new_id[e.v]));
    EXPECT_EQ(relabeled.EdgeWeight(new_id[e.u], new_id[e.v]), e.weight);
  }

  // End to end through the pipeline (weighted file + relabel + cache).
  // The expectation is built on the text-loaded graph, since the text
  // loader's first-seen id remap precedes the relabel step.
  const std::string path = Path("weighted.txt");
  ASSERT_TRUE(WriteEdgeList(original, path).ok());
  EdgeListOptions weighted_text;
  weighted_text.allow_weights = true;
  auto baseline = LoadSnapEdgeList(path, weighted_text);
  ASSERT_TRUE(baseline.ok());
  const CsrGraph expected = ApplyVertexPermutation(
      baseline.value(), DegreeDescendingPermutation(baseline.value()));
  IngestOptions options;
  options.degree_relabel = true;
  options.cache_dir = CacheDir();
  auto source = OpenGraphSource(path, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ExpectGraphsIdentical(expected, source.value().graph());
  auto again = OpenGraphSource(path, options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().cache_hit());
  ExpectGraphsIdentical(expected, again.value().graph());
}

TEST_F(IngestTest, MaterializeDatasetCachesSnapshot) {
  auto first = MaterializeDataset("caveman-36", CacheDir());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().cache_hit());
  EXPECT_TRUE(fs::exists(fs::path(CacheDir()) / "caveman-36.mhbc"));

  auto second = MaterializeDataset("caveman-36", CacheDir());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit());
  EXPECT_TRUE(second.value().zero_copy());
  ExpectGraphsIdentical(first.value().graph(), second.value().graph());

  // Empty cache dir degrades to plain generation.
  auto plain = MaterializeDataset("caveman-36", "");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().cache_hit());
  ExpectGraphsIdentical(plain.value().graph(), second.value().graph());

  EXPECT_FALSE(MaterializeDataset("no-such-dataset", CacheDir()).ok());
}

}  // namespace
}  // namespace mhbc
