#pragma once

#include <cstdint>
#include <vector>

#include "baselines/source_sampler.h"

/// \file
/// Riondato-Kornaropoulos shortest-path sampler ([30], §3.2 of the paper):
/// draw a uniform vertex pair (s, t), pick one shortest s-t path uniformly
/// at random, and credit its interior vertices. The expected credit rate of
/// v is exactly the paper-normalized BC(v) (Eq. 1), and VC-dimension theory
/// gives a distribution-free sample bound in terms of the vertex diameter.
///
/// Supports weighted graphs: the path backtrack then walks each vertex'
/// run of parent edges in the weighted DAG instead of the BFS distance
/// test.

namespace mhbc {

/// Shortest-path sampling estimator. Each sample runs one pass from s on
/// the oracle (DependencyOracle::Pass: counted, never memoized) and walks
/// its DAG back from t. The sampled paths — and therefore the estimates —
/// are bit-identical across the oracle's kernels, α/β settings, thread
/// counts, and bucket widths: the backtrack walks parents in a fixed
/// canonical order either way.
class RkSampler : public SourceSampler {
 public:
  RkSampler(const CsrGraph& graph, std::uint64_t seed,
            DependencyOracle* shared_oracle = nullptr)
      : SourceSampler(graph, seed, shared_oracle) {}

  /// Paper-normalized estimate of BC(r) from `num_samples` sampled paths.
  /// Per sample: one shortest-path pass + one backtrack.
  double Estimate(VertexId r, std::uint64_t num_samples) override;

  /// Estimates all vertices at once from `num_samples` paths (the [30]
  /// use case; the single-vertex harnesses read one entry). Continues the
  /// same stream as Estimate.
  std::vector<double> EstimateAll(std::uint64_t num_samples);

  /// VC-dimension sample bound of [30]: r = (c/eps^2) *
  /// (floor(log2(vd - 2)) + 1 + ln(1/delta)), with the universal constant
  /// c = 0.5 and `vertex_diameter` the number of vertices on a longest
  /// shortest path. Requires vd >= 2; eps in (0,1), delta in (0,1).
  static std::uint64_t SampleBound(std::uint32_t vertex_diameter, double eps,
                                   double delta);

 private:
  /// Samples one shortest path; adds 1 to `credit[v]` for each interior
  /// vertex v of the chosen path. A disconnected pair contributes no credit
  /// but still counts as a sample (keeps Eq. 1 unbiasedness on general
  /// graphs).
  void SampleOnePath(std::vector<double>* credit);

  /// Parents of the backtrack's current vertex (reused across steps).
  std::vector<VertexId> parent_scratch_;
};

}  // namespace mhbc
