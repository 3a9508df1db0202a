#pragma once

#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/ingest.h"
#include "util/status.h"

/// \file
/// Named experiment datasets.
///
/// The EDBT evaluation line uses SNAP networks; offline, the registry maps
/// each to a deterministic synthetic stand-in of the same topology class
/// and comparable scale (DatasetSpec::stands_in_for names the original).
/// Real SNAP edge-list files can be substituted at run time via
/// LoadSnapEdgeList — the registry is what keeps benches self-contained.

namespace mhbc {

/// A dataset the experiment suite can materialize on demand.
struct DatasetSpec {
  /// Registry key, e.g. "ca-collab-like".
  std::string name;
  /// SNAP dataset this stands in for (documentation only).
  std::string stands_in_for;
  /// Topology class description for tables.
  std::string family;
  /// Construction is deterministic given the spec (fixed internal seed).
  CsrGraph (*make)();
};

/// All registered datasets, ordered small to large.
const std::vector<DatasetSpec>& DatasetRegistry();

/// Builds a registered dataset by name.
StatusOr<CsrGraph> MakeDataset(const std::string& name);

/// Materializes a registered dataset through a snapshot cache: the first
/// call generates the graph and writes `<cache_dir>/<name>.mhbc`
/// (graph/snapshot.h); later calls mmap-load that snapshot zero-copy and
/// report GraphSource::cache_hit(). Registry datasets are deterministic,
/// so the dataset name is the whole cache key; delete the file (or pass a
/// fresh directory) after changing a generator. With an empty `cache_dir`
/// this degrades to MakeDataset wrapped in a GraphSource, and any cache
/// I/O failure degrades the same way — materialization never fails for
/// cache reasons.
StatusOr<GraphSource> MaterializeDataset(const std::string& name,
                                         const std::string& cache_dir);

/// The subset of registry names used by the fast experiment defaults
/// (graphs small enough for exact ground truth on one core).
std::vector<std::string> DefaultExperimentDatasets();

}  // namespace mhbc
