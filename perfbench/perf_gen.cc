// perf_gen — writes one benchmark workload's inputs from a seed.
//
//   perf_gen --workload <name> --seed <n> --out <dir>
//
// The measured program (perf_run) only ever sees these files, and reads
// them through the library's own ingestion entry points (OpenGraphSource,
// ParseEditScript), so generation cost stays out of its set-up time and
// its peak RSS. Written into <dir>:
//
//   graph.txt          SNAP edge list ("u v" or "u v w")
//   delta_NNNN.edits   the delta chain, one edit script per mutate
//   manifest.txt       key=value: workload, seed, request_seed, deltas
//
// Graphs:
//   cold-estimate  Barabasi-Albert n=8000, m=4 (social-like-8k scale)
//   churn-serve    32x32 road grid; each road's travel time is its unit
//                  length times a congestion factor uniform in [1, 2)
//
// Delta chain (churn-serve only): delta i closes two roads (removes two
// uniformly drawn edges) and reopens the roads delta i-1 closed, with fresh
// travel times, so the graph keeps its size and stays connected. Two roads
// per delta invalidate nearly every cached weighted pass, so every mutate
// costs the readers about the same refill.
//
// The same seed always yields byte-identical files.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/ingest.h"
#include "util/rng.h"

namespace {

using mhbc::CsrGraph;
using mhbc::GraphDelta;
using mhbc::VertexId;

struct Shape {
  const char* workload;
  bool grid;
  VertexId size;  ///< BA vertices, or the grid side
  std::uint32_t edges_per_vertex;
  std::size_t deltas;
  std::size_t closures;  ///< roads closed (and reopened) per delta
};

constexpr Shape kShapes[] = {
    {"cold-estimate", false, 8000, 4, 0, 0},
    {"churn-serve", true, 32, 0, 4096, 2},
};

constexpr double kMinWeight = 1.0;
constexpr double kMaxWeight = 2.0;

int Fail(const std::string& message) {
  std::fprintf(stderr, "perf_gen: %s\n", message.c_str());
  return 1;
}

/// The delta chain described in the file comment, drawn against the
/// ingested graph so its vertex ids are the ones perf_run will see.
std::vector<GraphDelta> MakeClosureChain(const CsrGraph& graph,
                                         std::size_t count, std::size_t batch,
                                         mhbc::Rng& rng) {
  const std::vector<CsrGraph::Edge> edges = graph.CollectEdges();
  std::vector<GraphDelta> chain;
  chain.reserve(count);
  std::vector<const CsrGraph::Edge*> closed;
  for (std::size_t i = 0; i < count; ++i) {
    // Roads closed together share no junction, so no junction loses two
    // roads at once and the grid stays connected.
    std::vector<const CsrGraph::Edge*> next;
    while (next.size() < batch) {
      const CsrGraph::Edge* edge = &edges[rng.NextBounded(edges.size())];
      bool usable =
          std::find(closed.begin(), closed.end(), edge) == closed.end();
      for (const CsrGraph::Edge* taken : next) {
        usable = usable && edge->u != taken->u && edge->u != taken->v &&
                 edge->v != taken->u && edge->v != taken->v;
      }
      if (usable) next.push_back(edge);
    }
    GraphDelta delta;
    for (const CsrGraph::Edge* edge : next) delta.RemoveEdge(edge->u, edge->v);
    for (const CsrGraph::Edge* edge : closed) {
      delta.AddEdge(edge->u, edge->v,
                    kMinWeight + (kMaxWeight - kMinWeight) * rng.NextDouble());
    }
    chain.push_back(delta);
    closed = next;
  }
  return chain;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  const Shape* shape = nullptr;
  for (const Shape& candidate : kShapes) {
    if (workload == candidate.workload) shape = &candidate;
  }
  if (shape == nullptr || out_dir.empty() || !have_seed) {
    return Fail("usage: perf_gen --workload <name> --seed <n> --out <dir>");
  }

  // One stream per input, so adding draws to one never shifts another.
  // NOLINTNEXTLINE(mhbc-banned-nondeterminism): --seed is the workload seed
  mhbc::Rng seeds(seed ^ 0x6d6862635f706572ULL);
  const std::uint64_t graph_seed = seeds.NextU64();
  const std::uint64_t weight_seed = seeds.NextU64();
  const std::uint64_t chain_seed = seeds.NextU64();
  const std::uint64_t request_seed = seeds.NextU64();

  const CsrGraph generated =
      shape->grid
          ? mhbc::AssignUniformWeights(mhbc::MakeGrid(shape->size, shape->size),
                                       kMinWeight, kMaxWeight, weight_seed)
          : mhbc::MakeBarabasiAlbert(shape->size, shape->edges_per_vertex,
                                     graph_seed);
  const std::string graph_path = out_dir + "/graph.txt";
  if (const mhbc::Status written = mhbc::WriteEdgeList(generated, graph_path);
      !written.ok()) {
    return Fail(written.ToString());
  }
  auto source = mhbc::OpenGraphSource(graph_path);
  if (!source.ok()) return Fail(source.status().ToString());

  // NOLINTNEXTLINE(mhbc-banned-nondeterminism): drawn from --seed above
  mhbc::Rng chain_rng(chain_seed);
  const std::vector<GraphDelta> chain =
      MakeClosureChain(source.value().graph(), shape->deltas,
                       shape->closures, chain_rng);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    char name[40];
    std::snprintf(name, sizeof(name), "/delta_%04zu.edits", i);
    if (const mhbc::Status written =
            mhbc::WriteEditScript(chain[i], out_dir + name);
        !written.ok()) {
      return Fail(written.ToString());
    }
  }

  std::ofstream manifest(out_dir + "/manifest.txt");
  manifest << "workload=" << shape->workload << "\n"
           << "seed=" << seed << "\n"
           << "request_seed=" << request_seed << "\n"
           << "deltas=" << chain.size() << "\n";
  manifest.close();
  if (!manifest) return Fail("cannot write " + out_dir + "/manifest.txt");
  return 0;
}
