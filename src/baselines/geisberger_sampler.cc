#include "baselines/geisberger_sampler.h"

namespace mhbc {

GeisbergerSampler::GeisbergerSampler(const CsrGraph& graph,
                                     std::uint64_t seed,
                                     DependencyOracle* shared_oracle)
    : SourceSampler(graph, seed, shared_oracle) {
  MHBC_DCHECK(!graph.weighted());
  aux_.assign(graph.num_vertices(), 0.0);
  scaled_.assign(graph.num_vertices(), 0.0);
  coeff_.assign(graph.num_vertices(), 0.0);
}

const std::vector<double>& GeisbergerSampler::ScaledDependencies(VertexId s) {
  const ShortestPathDag& dag = oracle_->Pass(s);
  for (VertexId v : touched_) {
    aux_[v] = 0.0;
    scaled_[v] = 0.0;
  }
  touched_.assign(dag.order.begin(), dag.order.end());

  // Levels deepest-first; level 0 is the source, whose own terms are 0.
  for (std::size_t level = dag.num_levels(); level-- > 1;) {
    // Every vertex of the level lies at d(s,w) == level; its A(w) is final
    // (its contributions all came from deeper slices).
    const double dw = static_cast<double>(level);
    const std::size_t end = dag.level_offsets[level + 1];
    for (std::size_t i = dag.level_offsets[level]; i < end; ++i) {
      const VertexId w = dag.order[i];
      // Contribution of target w itself (1/d(s,w)) plus accumulated flows.
      coeff_[w] = (1.0 / dw + aux_[w]) / static_cast<double>(dag.sigma[w]);
      scaled_[w] = dw * aux_[w];
    }
    FoldLevelEdges(dag, level, coeff_.data(), aux_.data());
  }
  scaled_[s] = 0.0;
  return scaled_;
}

double GeisbergerSampler::Estimate(VertexId r, std::uint64_t num_samples) {
  MHBC_DCHECK(r < graph_->num_vertices());
  MHBC_DCHECK(num_samples > 0);
  const double n = static_cast<double>(graph_->num_vertices());
  double acc = 0.0;
  for (std::uint64_t i = 0; i < num_samples; ++i) {
    const VertexId s = rng_.NextVertex(graph_->num_vertices());
    acc += 2.0 * ScaledDependencies(s)[r];
  }
  // E[2*delta'_s(r)] = raw BC(r) / n under uniform s, so raw ~= mean * n and
  // the Eq. 1 normalization divides by n(n-1).
  const double mean = acc / static_cast<double>(num_samples);
  return mean / (n - 1.0);
}

}  // namespace mhbc
