// E17 — Analytic variance decomposition (extension): exact single-sample
// variances of every unbiased source sampler, from the exact dependency
// profile. This is the quantitative version of [13]'s "optimal sampling"
// argument the paper builds on: the closer a practical distribution tracks
// delta, the smaller its variance — and the chain's stationary spread
// explains the E6 mixing numbers.

#include <cmath>

#include "bench_common.h"
#include "core/theory.h"
#include "core/variance.h"
#include "datasets/registry.h"
#include "sp/distance.h"

int main() {
  using namespace mhbc;
  bench::Banner("E17", "analytic sampler variances from exact profiles");

  Table table({"dataset", "target", "BC(r)", "mu(r)", "Var uniform",
               "Var distance", "Var optimal", "Var_pi[f] (chain)"});
  for (const std::string& name : DefaultExperimentDatasets()) {
    const CsrGraph graph = std::move(MakeDataset(name)).value();
    const bench::TargetSet targets = bench::PickTargets(graph);
    for (const auto& [label, r] :
         {std::pair<const char*, VertexId>{"hub", targets.hub},
          {"median", targets.median}}) {
      const auto profile = DependencyProfile(graph, r);
      double total = 0.0;
      for (double d : profile) total += d;
      if (total == 0.0) continue;
      const double n = static_cast<double>(graph.num_vertices());
      const double bc = total / (n * (n - 1.0));

      const auto dist = BfsDistancesTo(graph, r);
      std::vector<double> weights(profile.size(), 0.0);
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        if (v != r && dist[v] != kUnreachedDistance) {
          weights[v] = static_cast<double>(dist[v]);
        }
      }
      table.AddRow({name, label, FormatScientific(bc, 2),
                    FormatDouble(MuFromProfile(profile), 1),
                    FormatScientific(UniformSamplerVariance(profile), 2),
                    FormatScientific(WeightedSamplerVariance(profile, weights), 2),
                    FormatScientific(OptimalSamplerVariance(profile), 2),
                    FormatScientific(ChainStationaryVariance(profile), 2)});
    }
  }
  bench::PrintTable(
      "E17: exact per-sample variances (k-sample estimator divides by k)",
      table);
  return 0;
}
