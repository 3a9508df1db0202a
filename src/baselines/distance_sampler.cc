#include "baselines/distance_sampler.h"

#include <algorithm>

#include "sp/distance.h"

namespace mhbc {

void DistanceProportionalSampler::PrepareTarget(VertexId r) {
  if (prepared_target_ == r) return;
  const VertexId n = graph_->num_vertices();
  std::vector<double> weights(n, 0.0);
  // Distances *to* r: only sources that reach r depend on it.
  if (graph_->weighted()) {
    const std::vector<double> dist = DijkstraDistancesTo(*graph_, r);
    for (VertexId v = 0; v < n; ++v) {
      if (v != r && dist[v] > 0.0) weights[v] = dist[v];
    }
  } else {
    const std::vector<std::uint32_t> dist = BfsDistancesTo(*graph_, r);
    for (VertexId v = 0; v < n; ++v) {
      if (v != r && dist[v] != kUnreachedDistance) {
        weights[v] = static_cast<double>(dist[v]);
      }
    }
  }
  oracle_->RecordSetupPasses(1);  // the distance pass above is real work
  prepared_target_ = r;
  if (std::all_of(weights.begin(), weights.end(),
                  [](double w) { return w == 0.0; })) {
    table_.reset();
    return;
  }
  table_ = std::make_unique<DiscreteSampler>(weights);
  probabilities_.assign(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    probabilities_[v] = table_->Probability(v);
  }
}

double DistanceProportionalSampler::Estimate(VertexId r,
                                             std::uint64_t num_samples) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(num_samples > 0);
  const double n = static_cast<double>(graph_->num_vertices());
  PrepareTarget(r);
  if (table_ == nullptr) return 0.0;  // nothing reaches r: BC(r) == 0
  double acc = 0.0;
  for (std::uint64_t i = 0; i < num_samples; ++i) {
    const auto s = static_cast<VertexId>(table_->Sample(&rng_));
    const double p = probabilities_[s];
    MHBC_DCHECK(p > 0.0);
    acc += oracle_->Dependency(s, r) / p;
  }
  const double raw = acc / static_cast<double>(num_samples);
  return raw / (n * (n - 1.0));
}

}  // namespace mhbc
