#include "graph/ingest.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"

namespace mhbc {

namespace {

namespace fs = std::filesystem;

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::uint64_t FnvMix(std::uint64_t hash, const std::string& token) {
  for (unsigned char c : token) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  hash ^= 0xffu;  // token separator, so {"ab","c"} != {"a","bc"}
  hash *= 1099511628211ull;
  return hash;
}

/// Cache key: source file identity plus every option that changes the
/// ingested graph, plus the snapshot format version (a version bump
/// invalidates every cache entry instead of tripping the reader).
std::string CacheFileName(const std::string& path, const fs::path& source,
                          GraphFileFormat format, const IngestOptions& options) {
  std::uint64_t hash = 14695981039346656037ull;
  std::error_code ec;
  const fs::path canonical = fs::weakly_canonical(source, ec);
  hash = FnvMix(hash, ec ? path : canonical.string());
  const auto size = fs::file_size(source, ec);
  hash = FnvMix(hash, ec ? "?" : std::to_string(size));
  const auto mtime = fs::last_write_time(source, ec);
  hash = FnvMix(hash, ec ? "?"
                         : std::to_string(
                               mtime.time_since_epoch().count()));
  hash = FnvMix(hash, GraphFileFormatName(format));
  hash = FnvMix(hash, options.directed ? "directed" : "-");
  hash = FnvMix(hash, options.largest_component_only ? "lcc" : "-");
  hash = FnvMix(hash, options.degree_relabel ? "relabel" : "-");
  hash = FnvMix(hash, std::to_string(kSnapshotFormatVersion));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  std::string stem = source.stem().string();
  if (stem.empty()) stem = "graph";
  return stem + "-" + hex + kSnapshotExtension;
}

/// Largest-component extraction / relabel steps shared by every non-cache
/// load path. Returns true when a step actually rewrote the graph.
bool Preprocess(const IngestOptions& options, CsrGraph* graph) {
  bool rewritten = false;
  if (options.largest_component_only && !IsConnected(*graph)) {
    *graph = ExtractLargestComponent(*graph);
    rewritten = true;
  }
  if (options.degree_relabel) {
    *graph = ApplyVertexPermutation(*graph, DegreeDescendingPermutation(*graph));
    rewritten = true;
  }
  return rewritten;
}

StatusOr<CsrGraph> LoadTextFormat(const std::string& path,
                                  GraphFileFormat format,
                                  const IngestOptions& ingest,
                                  EdgeListStats* stats) {
  if (format == GraphFileFormat::kMatrixMarket) {
    return LoadMatrixMarket(path, ingest.directed);
  }
  EdgeListOptions options;
  options.allow_weights = format == GraphFileFormat::kWeightedEdgeList;
  options.directed = ingest.directed;
  options.stats = stats;
  return LoadSnapEdgeList(path, options);
}

}  // namespace

const char* GraphFileFormatName(GraphFileFormat format) {
  switch (format) {
    case GraphFileFormat::kAuto: return "auto";
    case GraphFileFormat::kEdgeList: return "edge-list";
    case GraphFileFormat::kWeightedEdgeList: return "weighted-edge-list";
    case GraphFileFormat::kMatrixMarket: return "matrix-market";
    case GraphFileFormat::kSnapshot: return "snapshot";
  }
  return "unknown";
}

GraphFileFormat SniffGraphFormat(const std::string& path) {
  const std::string ext = ToLower(fs::path(path).extension().string());
  if (ext == kSnapshotExtension) return GraphFileFormat::kSnapshot;
  if (ext == ".mtx" || ext == ".mm") return GraphFileFormat::kMatrixMarket;
  std::ifstream in(path, std::ios::binary);
  char lead[16] = {};
  in.read(lead, sizeof(lead));
  const std::string head(lead, static_cast<std::size_t>(in.gcount()));
  if (head.rfind("MHBCSNAP", 0) == 0) return GraphFileFormat::kSnapshot;
  if (head.rfind("%%MatrixMarket", 0) == 0) return GraphFileFormat::kMatrixMarket;
  return GraphFileFormat::kWeightedEdgeList;
}

GraphSource GraphSource::FromOwned(CsrGraph graph, GraphFileFormat origin) {
  GraphSource source;
  source.owned_ = std::move(graph);
  source.use_mapped_ = false;
  source.format_ = origin;
  return source;
}

StatusOr<GraphSource> GraphSource::FromSnapshotFile(
    const std::string& path, const SnapshotOptions& options, bool cache_hit,
    GraphFileFormat origin) {
  auto mapped = LoadSnapshotMapped(path, options);
  if (!mapped.ok()) return mapped.status();
  GraphSource source;
  source.mapped_ = std::move(mapped).value();
  source.use_mapped_ = true;
  source.cache_hit_ = cache_hit;
  source.snapshot_path_ = path;
  source.format_ = origin;
  return source;
}

StatusOr<GraphSource> OpenGraphSource(const std::string& path,
                                      const IngestOptions& options) {
  const GraphFileFormat format = options.format == GraphFileFormat::kAuto
                                     ? SniffGraphFormat(path)
                                     : options.format;
  SnapshotOptions snapshot_options;
  snapshot_options.verify_checksum = options.verify_checksum;
  snapshot_options.force_buffered = !options.prefer_mmap;

  if (format == GraphFileFormat::kSnapshot) {
    auto source = GraphSource::FromSnapshotFile(path, snapshot_options,
                                                /*cache_hit=*/false, format);
    if (!source.ok()) return source.status();
    // Snapshots are stored post-preprocessing by the cache writer, but a
    // hand-made snapshot can still be fed through the pipeline; stepping
    // on one trades the zero-copy view for an owned rewrite.
    CsrGraph graph = source.value().graph();
    if (Preprocess(options, &graph)) {
      GraphSource owned = GraphSource::FromOwned(std::move(graph), format);
      owned.snapshot_path_ = path;
      return owned;
    }
    return source;
  }

  // Text formats: serve the snapshot cache when enabled.
  const fs::path source_path(path);
  fs::path cache_file;
  if (!options.cache_dir.empty()) {
    cache_file = fs::path(options.cache_dir) /
                 CacheFileName(path, source_path, format, options);
    std::error_code ec;
    if (fs::exists(cache_file, ec)) {
      auto cached = GraphSource::FromSnapshotFile(
          cache_file.string(), snapshot_options, /*cache_hit=*/true, format);
      if (cached.ok()) return cached;
      // Corrupt/unreadable cache entry: rebuild it below rather than fail.
    }
  }

  EdgeListStats stats;
  auto loaded = LoadTextFormat(path, format, options, &stats);
  if (!loaded.ok()) return loaded.status();
  CsrGraph graph = std::move(loaded).value();
  Preprocess(options, &graph);

  if (!cache_file.empty()) {
    std::error_code ec;
    fs::create_directories(cache_file.parent_path(), ec);
    if (!ec && SaveSnapshot(graph, cache_file.string()).ok()) {
      auto cached = GraphSource::FromSnapshotFile(
          cache_file.string(), snapshot_options, /*cache_hit=*/false, format);
      if (cached.ok()) {
        // The parse ran this open, so its directedness-detection counter
        // is known even though the graph is served from the fresh cache.
        cached.value().mirrored_pairs_ = stats.mirrored_pairs;
        return cached;
      }
    }
    // Cache write/read-back failed (read-only dir, disk full): the parsed
    // graph is still good — serve it and leave caching for another run.
  }
  GraphSource source = GraphSource::FromOwned(std::move(graph), format);
  source.mirrored_pairs_ = stats.mirrored_pairs;
  if (!cache_file.empty()) source.snapshot_path_ = cache_file.string();
  return source;
}

StatusOr<CsrGraph> LoadMatrixMarket(const std::string& path, bool directed) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string banner;
  if (!std::getline(in, banner)) {
    return Status::InvalidArgument("'" + path + "': empty Matrix Market file");
  }
  std::istringstream banner_fields(banner);
  std::string tag, object, layout, field, symmetry;
  banner_fields >> tag >> object >> layout >> field >> symmetry;
  if (tag != "%%MatrixMarket") {
    return Status::InvalidArgument("'" + path +
                                   "': missing %%MatrixMarket banner");
  }
  object = ToLower(object);
  layout = ToLower(layout);
  field = ToLower(field);
  symmetry = ToLower(symmetry);
  if (object != "matrix" || layout != "coordinate") {
    return Status::InvalidArgument(
        "'" + path + "': only 'matrix coordinate' Matrix Market files are "
                     "supported (got '" + object + " " + layout + "')");
  }
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer" && field != "double") {
    return Status::InvalidArgument("'" + path + "': unsupported value field '" +
                                   field + "' (real/integer/pattern)");
  }
  if (symmetry != "general" && symmetry != "symmetric") {
    return Status::InvalidArgument("'" + path + "': unsupported symmetry '" +
                                   symmetry + "' (general/symmetric)");
  }

  std::string line;
  std::size_t line_no = 1;
  // Size line: first non-comment, non-blank line after the banner.
  std::uint64_t rows = 0, cols = 0, entries = 0;
  for (;;) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("'" + path + "': missing size line");
    }
    ++line_no;
    if (line.empty() || line[0] == '%') continue;
    std::istringstream fields(line);
    if (!(fields >> rows >> cols >> entries)) {
      return Status::InvalidArgument("'" + path + "' line " +
                                     std::to_string(line_no) +
                                     ": malformed size line");
    }
    break;
  }
  if (rows != cols) {
    return Status::InvalidArgument(
        "'" + path + "': adjacency matrix must be square, got " +
        std::to_string(rows) + "x" + std::to_string(cols));
  }
  if (rows == 0 || rows > static_cast<std::uint64_t>(kInvalidVertex)) {
    return Status::InvalidArgument("'" + path + "': vertex count " +
                                   std::to_string(rows) + " out of range");
  }
  // Refuse a count the entries cannot reach before the builder is sized
  // from it; 2 x entries saturates for entry counts near 2^64.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kAllowance = kMatrixMarketIsolatedVertexAllowance;
  const std::uint64_t reachable =
      entries > (kMax - kAllowance) / 2 ? kMax : 2 * entries + kAllowance;
  if (rows > reachable) {
    return Status::InvalidArgument(
        "'" + path + "' line " + std::to_string(line_no) + ": size line " +
        "declares " + std::to_string(rows) + " vertices, more than " +
        std::to_string(reachable) + " (2 x " + std::to_string(entries) +
        " entries + " + std::to_string(kAllowance) + " isolated)");
  }

  const bool symmetric = symmetry == "symmetric";
  GraphBuilder builder(static_cast<VertexId>(rows));
  builder.set_directed(directed);
  builder.set_ignore_self_loops(true).set_merge_duplicates(true);
  std::uint64_t seen = 0;
  while (seen < entries && std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '%') continue;
    std::istringstream fields(line);
    std::uint64_t i = 0, j = 0;
    if (!(fields >> i >> j)) {
      return Status::InvalidArgument("'" + path + "' line " +
                                     std::to_string(line_no) +
                                     ": expected 'row col [value]'");
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      return Status::InvalidArgument("'" + path + "' line " +
                                     std::to_string(line_no) +
                                     ": index out of range (1-based)");
    }
    double value = 1.0;
    if (!pattern) {
      if (!(fields >> value)) {
        return Status::InvalidArgument("'" + path + "' line " +
                                       std::to_string(line_no) +
                                       ": missing matrix value");
      }
      if (!(value > 0.0)) {
        return Status::InvalidArgument(
            "'" + path + "' line " + std::to_string(line_no) +
            ": edge weight must be positive, got " + std::to_string(value));
      }
    }
    builder.AddWeightedEdge(static_cast<VertexId>(i - 1),
                            static_cast<VertexId>(j - 1), value);
    // A `symmetric` file stores one triangle; a directed load must
    // materialize both orientations of each off-diagonal entry (the
    // undirected builder produces the mirror by construction).
    if (directed && symmetric && i != j) {
      builder.AddWeightedEdge(static_cast<VertexId>(j - 1),
                              static_cast<VertexId>(i - 1), value);
    }
    ++seen;
  }
  if (seen < entries) {
    return Status::InvalidArgument(
        "'" + path + "': size line promises " + std::to_string(entries) +
        " entries but the file holds " + std::to_string(seen));
  }
  StatusOr<CsrGraph> built = builder.Build();
  if (!built.ok()) return built.status();
  CsrGraph graph = std::move(built).value();
  graph.set_name(path);
  return graph;
}

Status WriteMatrixMarket(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  const bool weighted = graph.weighted();
  const bool directed = graph.directed();
  // A directed adjacency matrix is not symmetric: it must carry the
  // `general` banner with one entry per arc. The `symmetric` banner is
  // reserved for undirected graphs (where it halves the file and the
  // loader mirrors), and that branch is byte-identical to what every
  // prior version wrote, so undirected round trips stay byte-stable.
  out << "%%MatrixMarket matrix coordinate "
      << (weighted ? "real" : "pattern")
      << (directed ? " general\n" : " symmetric\n");
  out << "% mhbc graph: n=" << graph.num_vertices()
      << " m=" << graph.num_edges()
      << (directed ? " directed" : "") << "\n";
  out << graph.num_vertices() << ' ' << graph.num_vertices() << ' '
      << graph.num_edges() << '\n';
  char value[32];
  for (const CsrGraph::Edge& e : graph.CollectEdges()) {
    // Undirected: symmetric coordinate entries live in the lower triangle
    // (row >= col); CollectEdges yields u < v, so v becomes the row.
    // Directed: entry (row=u, col=v) is the arc u→v, one per arc.
    if (directed) {
      out << (e.u + 1) << ' ' << (e.v + 1);
    } else {
      out << (e.v + 1) << ' ' << (e.u + 1);
    }
    if (weighted) {
      std::snprintf(value, sizeof(value), " %.17g", e.weight);
      out << value;
    }
    out << '\n';
  }
  out.flush();
  if (!out) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::Ok();
}

}  // namespace mhbc
