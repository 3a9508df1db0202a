#pragma once

#include <cstdint>

#include "baselines/source_sampler.h"

/// \file
/// Uniform source sampling baseline (Bader et al. 2007 style, and the
/// uniform instantiation of Chehreghani's randomized framework [13]).

namespace mhbc {

/// Estimates BC(r) by sampling source vertices uniformly from V(G) and
/// averaging importance-weighted dependencies.
///
/// Unbiased: with s ~ Uniform(V), E[delta_{s.}(r)] = raw BC(r) / n, so
/// mean(delta) / (n-1) estimates the paper-normalized BC(r) (Eq. 1).
/// Per sample: one shortest-path pass (or a memo hit on a shared oracle).
class UniformSourceSampler : public SourceSampler {
 public:
  UniformSourceSampler(const CsrGraph& graph, std::uint64_t seed,
                       DependencyOracle* shared_oracle = nullptr)
      : SourceSampler(graph, seed, shared_oracle) {}

  double Estimate(VertexId r, std::uint64_t num_samples) override;
};

}  // namespace mhbc
