#include "baselines/rk_sampler.h"

#include <cmath>

namespace mhbc {

void RkSampler::SampleOnePath(std::vector<double>* credit) {
  const VertexId n = graph_->num_vertices();
  VertexId s = rng_.NextVertex(n);
  VertexId t = rng_.NextVertex(n);
  while (t == s) t = rng_.NextVertex(n);

  const ShortestPathDag& dag = oracle_->Pass(s);
  const bool reached = graph_->weighted() ? dag.wdist[t] >= 0.0
                                          : dag.dist[t] != kUnreachedDistance;
  if (!reached) return;  // zero-credit sample

  // Backtrack from t, choosing predecessor z with probability
  // sigma_sz / sigma_sw, which selects each shortest s-t path uniformly.
  // ForEachParent walks a weighted pass' parent run (relaxation order) and
  // rescans in-neighbors against dist on BFS passes (ascending parent id,
  // whichever kernel ran), so the chosen path — and the RNG stream — is
  // bit-identical across kernels and thread counts.
  VertexId w = t;
  while (w != s) {
    parent_scratch_.clear();
    ForEachParent(dag, *graph_, w,
                  [this](VertexId z) { parent_scratch_.push_back(z); });
    MHBC_DCHECK(!parent_scratch_.empty());
    const double total = static_cast<double>(dag.sigma[w]);
    double target = rng_.NextDouble() * total;
    // The fp tail (target still >= 0 after every parent) falls back to the
    // last parent.
    VertexId chosen = parent_scratch_.back();
    for (VertexId z : parent_scratch_) {
      target -= static_cast<double>(dag.sigma[z]);
      if (target < 0.0) {
        chosen = z;
        break;
      }
    }
    w = chosen;
    if (w != s) (*credit)[w] += 1.0;
  }
}

double RkSampler::Estimate(VertexId r, std::uint64_t num_samples) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(num_samples > 0);
  std::vector<double> credit(graph_->num_vertices(), 0.0);
  for (std::uint64_t i = 0; i < num_samples; ++i) SampleOnePath(&credit);
  return credit[r] / static_cast<double>(num_samples);
}

std::vector<double> RkSampler::EstimateAll(std::uint64_t num_samples) {
  MHBC_DCHECK(num_samples > 0);
  std::vector<double> credit(graph_->num_vertices(), 0.0);
  for (std::uint64_t i = 0; i < num_samples; ++i) SampleOnePath(&credit);
  for (double& c : credit) c /= static_cast<double>(num_samples);
  return credit;
}

std::uint64_t RkSampler::SampleBound(std::uint32_t vertex_diameter, double eps,
                                     double delta) {
  MHBC_DCHECK(vertex_diameter >= 2);
  MHBC_DCHECK(eps > 0.0 && eps < 1.0);
  MHBC_DCHECK(delta > 0.0 && delta < 1.0);
  constexpr double kUniversalConstant = 0.5;
  // VC dimension of the range set is at most floor(log2(vd - 2)) + 1 for
  // vd > 2; a single-edge "path system" (vd == 2) has VC dimension 1.
  const double vc =
      vertex_diameter > 2
          ? std::floor(std::log2(static_cast<double>(vertex_diameter) - 2.0)) +
                1.0
          : 1.0;
  const double bound =
      kUniversalConstant / (eps * eps) * (vc + std::log(1.0 / delta));
  return static_cast<std::uint64_t>(std::ceil(bound));
}

}  // namespace mhbc
