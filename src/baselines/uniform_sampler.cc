#include "baselines/uniform_sampler.h"

namespace mhbc {

double UniformSourceSampler::Estimate(VertexId r, std::uint64_t num_samples) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(num_samples > 0);
  const VertexId n = graph_->num_vertices();
  double acc = 0.0;
  for (std::uint64_t i = 0; i < num_samples; ++i) {
    const VertexId s = rng_.NextVertex(n);
    acc += oracle_->Dependency(s, r);
  }
  const double mean = acc / static_cast<double>(num_samples);
  return mean / (static_cast<double>(n) - 1.0);
}

}  // namespace mhbc
