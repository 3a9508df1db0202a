#pragma once

#include <cstdint>
#include <string>

#include "graph/csr_graph.h"
#include "graph/snapshot.h"
#include "util/status.h"

/// \file
/// GraphSource — the multi-format ingestion front-end.
///
/// Every downstream layer (engine sessions, benches, CLI tools, examples)
/// used to funnel through the SNAP text parser and re-pay parse +
/// id-remap + CSR-build on every run. OpenGraphSource replaces that single
/// path: it dispatches by extension/content sniffing across SNAP edge
/// lists, weighted edge lists, Matrix Market `.mtx` files, and `.mhbc`
/// binary snapshots (graph/snapshot.h), runs an explicit preprocessing
/// pipeline (duplicate/self-loop handling is inherent to GraphBuilder;
/// largest-component extraction and degree-descending relabeling are
/// opt-in), and — when IngestOptions::cache_dir is set — transparently
/// maintains a snapshot cache so any text dataset is parsed once and
/// mmap-loaded forever after. Accepted formats and the preprocessing
/// flags are documented in docs/formats.md.

namespace mhbc {

/// On-disk formats OpenGraphSource understands.
enum class GraphFileFormat {
  /// Decide from the file extension, then the leading bytes (SniffGraphFormat).
  kAuto,
  /// SNAP whitespace edge list, strictly two columns ('#' comments).
  kEdgeList,
  /// Edge list whose optional third column is a positive edge weight.
  kWeightedEdgeList,
  /// Matrix Market coordinate format (real/integer/pattern,
  /// general/symmetric); the matrix is read as an adjacency matrix.
  kMatrixMarket,
  /// Binary CSR snapshot (graph/snapshot.h, docs/formats.md).
  kSnapshot,
};

/// Stable lowercase name for tables/CLIs ("auto", "edge-list", ...).
const char* GraphFileFormatName(GraphFileFormat format);

/// Resolves kAuto for a file: `.mhbc` / `.mtx` / `.mm` extensions decide
/// immediately; otherwise the leading bytes are sniffed (snapshot magic,
/// "%%MatrixMarket" banner), defaulting to kWeightedEdgeList — under
/// kAuto a third numeric column is always treated as a weight. Never
/// returns kAuto; unreadable files sniff as kWeightedEdgeList and fail
/// with the real I/O error at load time.
GraphFileFormat SniffGraphFormat(const std::string& path);

/// Ingestion pipeline configuration. Preprocessing order is fixed:
/// parse -> largest-component extraction -> degree relabel -> snapshot
/// cache write. The cache key covers the source file identity (path,
/// size, mtime) and every option that changes the resulting graph, so a
/// cache entry is only ever served for the exact pipeline that wrote it.
struct IngestOptions {
  GraphFileFormat format = GraphFileFormat::kAuto;
  /// Ingest text formats as a *directed* graph: edge-list lines stay the
  /// arc u→v, Matrix Market entries the arc row→col (a `symmetric` MM
  /// file contributes both orientations). Off by default — the historical
  /// symmetrizing load, which GraphSource::mirrored_pairs() now
  /// quantifies instead of hiding. Snapshots carry their own directed
  /// flag and ignore this option.
  bool directed = false;
  /// Keep only the largest connected component (no-op when connected;
  /// weakly connected on directed graphs).
  bool largest_component_only = false;
  /// Relabel vertices degree-descending for CSR cache locality
  /// (DegreeDescendingPermutation). Changes vertex ids!
  bool degree_relabel = false;
  /// When non-empty: maintain `.mhbc` snapshots of ingested text datasets
  /// under this directory (created on demand) and mmap-load them on every
  /// later open. Corrupt/stale cache entries are rebuilt, not fatal.
  std::string cache_dir;
  /// Serve snapshots zero-copy via mmap where available (else buffered).
  bool prefer_mmap = true;
  /// Verify snapshot checksums on load (see SnapshotOptions).
  bool verify_checksum = true;
};

/// An opened graph plus where it came from. Owns the backing storage —
/// either an owning CsrGraph or the live mmap of a snapshot — so keep the
/// GraphSource alive for as long as graph() (or anything referencing it,
/// e.g. a BetweennessEngine) is in use. Movable, not copyable.
class GraphSource {
 public:
  GraphSource() = default;
  GraphSource(GraphSource&&) noexcept = default;
  GraphSource& operator=(GraphSource&&) noexcept = default;

  /// The ingested graph (post-preprocessing).
  const CsrGraph& graph() const {
    return use_mapped_ ? mapped_.graph() : owned_;
  }

  /// True when graph() is a zero-copy view over an mmap'ed snapshot.
  bool zero_copy() const { return use_mapped_ && mapped_.zero_copy(); }

  /// True when the graph was served from IngestOptions::cache_dir (or a
  /// pre-existing registry cache file) instead of being parsed/built.
  bool cache_hit() const { return cache_hit_; }

  /// The snapshot file backing this source: the opened `.mhbc` file, the
  /// cache entry served or written, or empty when no snapshot exists.
  const std::string& snapshot_path() const { return snapshot_path_; }

  /// Format of the file actually opened (never kAuto).
  GraphFileFormat source_format() const { return format_; }

  /// Directedness of the ingested graph: true when IngestOptions::directed
  /// forced a directed text load or the opened snapshot carries the v2
  /// directed flag. Mirrors graph().directed(); recorded here so callers
  /// holding only the source metadata can report it.
  bool directed() const { return graph().directed(); }

  /// Mirrored-pair count detected by the text parse: unordered pairs that
  /// appeared in both orientations (see EdgeListStats::mirrored_pairs). A
  /// non-zero count on an undirected load measures how much orientation
  /// the symmetrization discarded — the loader's directedness-detection
  /// signal. Zero for snapshots and cache hits (the parse never ran).
  std::size_t mirrored_pairs() const { return mirrored_pairs_; }

  /// Plumbing factory: wraps an already-built owning graph (used by the
  /// dataset registry and as the no-cache fallback).
  static GraphSource FromOwned(CsrGraph graph, GraphFileFormat origin);

  /// Plumbing factory: opens `path` as a snapshot (mmap preferred per
  /// `options`) and tags the result. Prefer OpenGraphSource.
  static StatusOr<GraphSource> FromSnapshotFile(const std::string& path,
                                                const SnapshotOptions& options,
                                                bool cache_hit,
                                                GraphFileFormat origin);

 private:
  friend StatusOr<GraphSource> OpenGraphSource(const std::string& path,
                                               const IngestOptions& options);

  MappedGraph mapped_;
  CsrGraph owned_;
  bool use_mapped_ = false;
  bool cache_hit_ = false;
  std::size_t mirrored_pairs_ = 0;
  std::string snapshot_path_;
  GraphFileFormat format_ = GraphFileFormat::kAuto;
};

/// Opens `path` through the ingestion pipeline described in the file
/// comment. Errors surface as the underlying parser/loader Status.
StatusOr<GraphSource> OpenGraphSource(const std::string& path,
                                      const IngestOptions& options = IngestOptions());

/// Isolated vertices a Matrix Market size line may declare beyond the two
/// endpoints of each entry: LoadMatrixMarket refuses a vertex count above
/// 2 x entries + this allowance, so what it allocates stays proportional to
/// the entries it reads.
inline constexpr std::uint64_t kMatrixMarketIsolatedVertexAllowance =
    std::uint64_t{1} << 20;

/// Loads a Matrix Market coordinate file: real/integer values become
/// positive edge weights (all-1 values yield an unweighted graph),
/// pattern entries unweighted edges; self-loops are dropped; the matrix
/// must be square, with at most 2 x entries +
/// kMatrixMarketIsolatedVertexAllowance rows. Undirected (default):
/// duplicate/general-format mirror entries merge. Directed: each entry is
/// the arc row→col; a `symmetric` file contributes both orientations of
/// every off-diagonal entry.
StatusOr<CsrGraph> LoadMatrixMarket(const std::string& path,
                                    bool directed = false);

/// Writes `graph` as Matrix Market coordinate (`real` when weighted,
/// `pattern` otherwise). Undirected graphs use the `symmetric` banner
/// with lower-triangle entries (byte-stable across round trips); directed
/// graphs use the `general` banner with one entry per arc row=u, col=v in
/// CSR order. Output round-trips through LoadMatrixMarket (pass
/// directed=true for a `general` file written from a directed graph).
Status WriteMatrixMarket(const CsrGraph& graph, const std::string& path);

}  // namespace mhbc
