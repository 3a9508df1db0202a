// E16 — Adaptive-budget extension: the Eq. 14 budget needs mu(r) (as hard
// as BC(r) itself); the engine's kStandardError budget stops from the
// chain's own variance. This harness compares realized adaptive budgets
// and errors against the oracle Eq. 14 budget across mu regimes.

#include <cmath>

#include "bench_common.h"
#include "centrality/engine.h"
#include "core/theory.h"
#include "datasets/registry.h"
#include "graph/generators.h"

int main() {
  using namespace mhbc;
  bench::Banner("E16", "adaptive stopping vs the oracle Eq. 14 budget");
  const double kEps = 0.05;

  struct Case {
    std::string name;
    CsrGraph graph;
    VertexId r;
  };
  std::vector<Case> cases;
  cases.push_back({"barbell(20,1) bridge", MakeBarbell(20, 1), 20});
  cases.push_back({"caveman(6,10) gateway", MakeConnectedCaveman(6, 10), 9});
  {
    CsrGraph g = std::move(MakeDataset("email-like-1k")).value();
    const VertexId hub = bench::PickTargets(g).hub;
    cases.push_back({"email-like-1k hub", std::move(g), hub});
  }

  Table table({"case", "mu(r)", "T(Eq.14, oracle)", "T(adaptive)",
               "converged", "|est-limit|", "half-width"});
  for (const Case& c : cases) {
    const auto profile = DependencyProfile(c.graph, c.r);
    const double mu = MuFromProfile(profile);
    const double limit = ChainLimitEstimate(profile);
    const std::uint64_t oracle = SampleBound(mu, kEps, 0.1);

    // Stop once the confidence half-width is at most kEps.
    BetweennessEngine engine(c.graph);
    EstimateRequest request;
    request.kind = EstimatorKind::kMetropolisHastings;
    request.budget = BudgetKind::kStandardError;
    request.target_std_error = kEps / kConfidenceZ;
    request.max_samples = 1 << 17;
    request.seed = 0xE16;
    const EstimateReport report = engine.Estimate(c.r, request).value();
    table.AddRow({c.name, FormatDouble(mu, 1), FormatCount(oracle),
                  FormatCount(report.samples_used),
                  report.converged ? "yes" : "no",
                  FormatScientific(std::fabs(report.value - limit), 2),
                  FormatScientific(report.ci_half_width, 2)});
  }
  bench::PrintTable(
      "E16: adaptive budgets track the mu regime without knowing mu", table);
  return 0;
}
