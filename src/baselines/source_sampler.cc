#include "baselines/source_sampler.h"

namespace mhbc {

SourceSampler::SourceSampler(const CsrGraph& graph, std::uint64_t seed,
                             DependencyOracle* shared_oracle)
    : graph_(&graph), oracle_(shared_oracle), rng_(seed) {
  MHBC_DCHECK(graph.num_vertices() >= 2);
  if (oracle_ == nullptr) {
    owned_oracle_ = std::make_unique<DependencyOracle>(graph);
    oracle_ = owned_oracle_.get();
  }
  MHBC_DCHECK(&oracle_->graph() == &graph);
}

SourceSampler::~SourceSampler() = default;

}  // namespace mhbc
