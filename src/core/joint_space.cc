#include "core/joint_space.h"

#include <cmath>
#include <limits>
#include <unordered_set>

#include "util/stats.h"

namespace mhbc {

JointSpaceSampler::JointSpaceSampler(const CsrGraph& graph,
                                     std::vector<VertexId> targets,
                                     JointOptions options,
                                     DependencyOracle* shared_oracle)
    : graph_(&graph),
      targets_(std::move(targets)),
      options_(options),
      owned_oracle_(shared_oracle ? nullptr
                                  : std::make_unique<DependencyOracle>(graph)),
      oracle_(shared_oracle ? shared_oracle : owned_oracle_.get()),
      streams_(options.seed) {
  MHBC_DCHECK(graph.num_vertices() >= 2);
  MHBC_DCHECK(targets_.size() >= 2);
  std::unordered_set<VertexId> seen;
  for (VertexId r : targets_) {
    MHBC_DCHECK(r < graph.num_vertices());
    const bool inserted = seen.insert(r).second;
    MHBC_DCHECK(inserted);  // targets must be distinct
  }
}

JointResult JointSpaceSampler::Run(std::uint64_t iterations) {
  MHBC_DCHECK(iterations >= 1);
  const VertexId n = graph_->num_vertices();
  const std::size_t k = targets_.size();

  JointResult result;
  const std::uint64_t passes_before = oracle_->num_passes();
  result.samples_per_target.assign(k, 0);
  // accum[j][i] collects sum over M(j) of min{1, delta_v(ri)/delta_v(rj)}.
  std::vector<std::vector<double>> accum(k, std::vector<double>(k, 0.0));
  std::unordered_set<std::uint64_t> distinct;

  // Dependencies of the current state's v on every target (delta row).
  std::vector<double> row_current(k, 0.0);
  std::vector<double> row_proposed(k, 0.0);

  auto load_row = [&](VertexId v, std::vector<double>* row) {
    const std::vector<double>& deltas = oracle_->Dependencies(v);
    for (std::size_t i = 0; i < k; ++i) (*row)[i] = deltas[targets_[i]];
  };

  // Initial state <r0, v0>, both uniform (paper §4.3).
  streams_.BeginRun();
  Rng* initial = streams_.At(kInitialStream, 0);
  std::size_t current_target =
      static_cast<std::size_t>(initial->NextBounded(k));
  VertexId current_v = initial->NextVertex(n);
  load_row(current_v, &row_current);

  auto record_state = [&](std::size_t target_idx, VertexId v,
                          const std::vector<double>& row) {
    ++result.samples_per_target[target_idx];
    const double delta_j = row[target_idx];
    for (std::size_t i = 0; i < k; ++i) {
      accum[target_idx][i] += ClippedRatio(row[i], delta_j);
    }
    distinct.insert(static_cast<std::uint64_t>(target_idx) << 32 |
                    static_cast<std::uint64_t>(v));
    if (options_.record_trace) result.trace.emplace_back(target_idx, v);
  };
  if (options_.burn_in == 0) {
    record_state(current_target, current_v, row_current);
  }

  for (std::uint64_t t = 1; t <= options_.burn_in + iterations; ++t) {
    Rng* proposal = streams_.At(kProposalStream, t);
    const std::size_t proposed_target =
        static_cast<std::size_t>(proposal->NextBounded(k));
    const VertexId proposed_v = proposal->NextVertex(n);
    load_row(proposed_v, &row_proposed);

    const double accept_probability = MhAcceptanceProbability(
        row_current[current_target], row_proposed[proposed_target]);
    if (streams_.At(kAcceptStream, t)->NextBernoulli(accept_probability)) {
      current_target = proposed_target;
      current_v = proposed_v;
      row_current.swap(row_proposed);
      ++result.diagnostics.accepted;
    } else {
      ++result.diagnostics.rejected;
    }
    if (t > options_.burn_in) {
      record_state(current_target, current_v, row_current);
    }
  }

  result.diagnostics.iterations = options_.burn_in + iterations;
  // Work this run actually paid for (oracle memo hits cost no pass).
  result.diagnostics.sp_passes = oracle_->num_passes() - passes_before;
  result.diagnostics.distinct_states = distinct.size();

  // Finalize Eq. 23 estimates and Eq. 22 ratios.
  result.relative.assign(k, std::vector<double>(k, 0.0));
  result.ratio.assign(k, std::vector<double>(k,
                      std::numeric_limits<double>::quiet_NaN()));
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t m_j = result.samples_per_target[j];
    if (m_j == 0) {
      result.undersampled = true;
      continue;
    }
    for (std::size_t i = 0; i < k; ++i) {
      result.relative[j][i] = accum[j][i] / static_cast<double>(m_j);
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) {
        result.ratio[i][j] = 1.0;
        continue;
      }
      const double numerator = result.relative[j][i];    // over M(j)
      const double denominator = result.relative[i][j];  // over M(i)
      if (result.samples_per_target[j] > 0 &&
          result.samples_per_target[i] > 0 && denominator > 0.0) {
        result.ratio[i][j] = numerator / denominator;
      }
    }
  }

  // Copeland-style ranking aggregate over pairwise ratio comparisons.
  result.copeland_scores.assign(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const double r_ij = result.ratio[i][j];
      if (!std::isnan(r_ij) && r_ij >= 1.0) result.copeland_scores[i] += 1.0;
    }
  }
  return result;
}

}  // namespace mhbc
