// The traced run's layer replays: after the timed phase, the workload's own
// graph, sources and delta chain go through the lower-layer public calls
// one at a time, each timed alone, so every number has a single layer
// behind it. Each workload replays only the layers its timed phase reaches.

#include <algorithm>
#include <memory>
#include <span>

#include "centrality/engine.h"
#include "exact/dependency_oracle.h"
#include "sp/bfs_spd.h"
#include "sp/delta_spd.h"
#include "sp/dependency.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Distinct sources whose passes and memo lookups are timed one by one.
constexpr std::size_t kTimedSources = 256;
// Deltas of the chain replayed through graph / exact / centrality.
constexpr std::size_t kReplayDeltas = 8;
constexpr std::uint64_t kSourceSalt = 0x736f7572636573ULL;

/// `count` distinct sources, uniformly drawn as the chains' proposals are.
std::vector<mhbc::VertexId> DrawSources(mhbc::VertexId n, std::size_t count,
                                        std::uint64_t seed) {
  // NOLINTNEXTLINE(mhbc-banned-nondeterminism): the workload seed flows in
  mhbc::Rng rng(seed);
  std::vector<bool> taken(n, false);
  std::vector<mhbc::VertexId> sources;
  while (sources.size() < count && sources.size() < n) {
    const mhbc::VertexId v = rng.NextVertex(n);
    if (taken[v]) continue;
    taken[v] = true;
    sources.push_back(v);
  }
  return sources;
}

/// Times one pass + sweep per source on kernel `Spd` (BfsSpd or DeltaSpd).
template <typename Spd>
void TimePasses(const mhbc::CsrGraph& graph,
                const std::vector<mhbc::VertexId>& sources,
                const std::string& name, std::vector<Metric>* out) {
  Spd kernel(graph);
  mhbc::DependencyAccumulator accumulator(graph);
  double pass_s = 0.0;
  double sweep_s = 0.0;
  double edges = 0.0;
  double checksum = 0.0;
  for (const mhbc::VertexId s : sources) {
    mhbc::WallTimer timer;
    kernel.Run(s);
    pass_s += timer.ElapsedSeconds();
    timer.Reset();
    checksum += accumulator.Accumulate(kernel)[s];
    sweep_s += timer.ElapsedSeconds();
    edges += static_cast<double>(kernel.last_stats().edges_examined);
  }
  const double count = static_cast<double>(sources.size());
  // A source's dependency on itself is 0; a nonzero sum means a broken pass.
  const std::string broken =
      checksum != 0.0 ? " (self-dependency nonzero!)" : "";
  out->push_back(Metric{"sp.pass_us", pass_s * 1e6 / count, "us",
                        sources.size(), name + "::Run" + broken});
  out->push_back(Metric{"sp.sweep_us", sweep_s * 1e6 / count, "us",
                        sources.size(), "DependencyAccumulator::Accumulate"});
  if (!graph.weighted()) {
    out->push_back(Metric{"sp.edges_per_pass", edges / count, "count",
                          sources.size(), name + "::last_stats"});
  }
}

}  // namespace

std::vector<Metric> ReplayPasses(const mhbc::CsrGraph& graph,
                                 std::uint64_t seed) {
  std::vector<Metric> out;
  const std::vector<mhbc::VertexId> sources =
      DrawSources(graph.num_vertices(), kTimedSources, seed ^ kSourceSalt);
  if (graph.weighted()) {
    TimePasses<mhbc::DeltaSpd>(graph, sources, "DeltaSpd", &out);
  } else {
    TimePasses<mhbc::BfsSpd>(graph, sources, "BfsSpd", &out);
  }
  return out;
}

Metric ReplayDependencies(const mhbc::CsrGraph& graph, std::uint64_t seed,
                          bool cached) {
  const std::vector<mhbc::VertexId> sources =
      DrawSources(graph.num_vertices(), kTimedSources, seed ^ kSourceSalt);
  // The memo with the engine's sizing (every source fits).
  mhbc::DependencyOracle oracle(graph);
  oracle.set_cache_capacity(graph.num_vertices());
  if (cached) {
    for (const mhbc::VertexId s : sources) (void)oracle.Dependencies(s);
  }
  double lookup_s = 0.0;
  for (const mhbc::VertexId s : sources) {
    const mhbc::WallTimer timer;
    (void)oracle.Dependencies(s);
    lookup_s += timer.ElapsedSeconds();
  }
  return Metric{cached ? "exact.hit_us" : "exact.miss_us",
                lookup_s * 1e6 / static_cast<double>(sources.size()), "us",
                sources.size(),
                std::string("DependencyOracle::Dependencies, ") +
                    (cached ? "cached" : "uncached") + " source"};
}

std::vector<Metric> ReplayChain(const mhbc::CsrGraph& graph,
                                const std::vector<mhbc::GraphDelta>& deltas,
                                std::uint64_t seed,
                                std::uint64_t warm_samples) {
  const mhbc::VertexId n = graph.num_vertices();
  // The memo a serve session holds between edits: every source (set-up
  // warms them all).
  mhbc::DependencyOracle oracle(graph);
  oracle.set_cache_capacity(n);
  const std::vector<mhbc::VertexId> warm = DrawSources(n, n, seed);
  for (const mhbc::VertexId s : warm) (void)oracle.Dependencies(s);

  mhbc::DynamicGraph dynamic(graph);
  std::vector<std::unique_ptr<mhbc::CsrGraph>> epochs;
  mhbc::BetweennessEngine engine(graph);
  const std::vector<mhbc::VertexId> targets = PickTargets(graph);
  mhbc::EstimateRequest request;
  request.samples = warm_samples;
  request.seed = seed;
  (void)engine.EstimateMany(targets, request);
  double apply_s = 0.0;
  double materialize_s = 0.0;
  double invalidate_s = 0.0;
  double survival = 0.0;
  double engine_apply_s = 0.0;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < kReplayDeltas && i < deltas.size(); ++i) {
    std::vector<mhbc::GraphEdit> resolved;
    mhbc::WallTimer timer;
    if (!dynamic.Apply(deltas[i], &resolved).ok()) break;
    apply_s += timer.ElapsedSeconds();
    timer.Reset();
    epochs.push_back(std::make_unique<mhbc::CsrGraph>(dynamic.Csr()));
    materialize_s += timer.ElapsedSeconds();

    const double before = static_cast<double>(oracle.cached_entries());
    timer.Reset();
    oracle.ApplyGraphDelta(*epochs.back(),
                           std::span<const mhbc::GraphEdit>(resolved));
    invalidate_s += timer.ElapsedSeconds();
    survival += before > 0.0
                    ? static_cast<double>(oracle.cached_entries()) / before
                    : 1.0;
    for (const mhbc::VertexId s : warm) (void)oracle.Dependencies(s);

    timer.Reset();
    if (!engine.ApplyDelta(deltas[i]).ok()) break;
    engine_apply_s += timer.ElapsedSeconds();
    request.seed = seed + i + 1;
    (void)engine.EstimateMany(targets, request);
    ++replayed;
  }
  const double count = static_cast<double>(std::max<std::size_t>(1, replayed));
  return {
      Metric{"graph.apply_ms", apply_s * 1e3 / count, "ms", replayed,
             "DynamicGraph::Apply"},
      Metric{"graph.materialize_ms", materialize_s * 1e3 / count, "ms",
             replayed, "DynamicGraph::Csr (+ copy)"},
      Metric{"exact.invalidate_ms", invalidate_s * 1e3 / count, "ms", replayed,
             "DependencyOracle::ApplyGraphDelta, " +
                 std::to_string(warm.size()) + "-entry memo"},
      Metric{"exact.survival_ratio", survival / count, "ratio", replayed,
             "cached_entries() after / before an edit"},
      Metric{"centrality.apply_delta_ms", engine_apply_s * 1e3 / count, "ms",
             replayed, "BetweennessEngine::ApplyDelta, one session"},
  };
}

}  // namespace perfbench
