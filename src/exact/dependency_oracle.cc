#include "exact/dependency_oracle.h"

#include <utility>

namespace mhbc {

DependencyOracle::DependencyOracle(const CsrGraph& graph, SpdOptions spd,
                                   std::shared_ptr<DependencyMemo> memo)
    : graph_(&graph),
      spd_(spd),
      accumulator_(graph),
      memo_(memo ? std::move(memo) : std::make_shared<DependencyMemo>()) {
  // The backward sweep borrows the pass engine's intra-pass pool (null
  // when spd.num_threads resolves to sequential), so one pass + accumulate
  // runs on one set of threads.
  if (graph.weighted()) {
    delta_ = std::make_unique<DeltaSpd>(graph, spd);
    accumulator_ =
        DependencyAccumulator(graph, delta_->intra_pool(), spd.parallel_grain);
  } else {
    bfs_ = std::make_unique<BfsSpd>(graph, spd);
    accumulator_ =
        DependencyAccumulator(graph, bfs_->intra_pool(), spd.parallel_grain);
  }
}

void DependencyOracle::set_cache_capacity(std::size_t max_entries) {
  memo_->set_capacity(max_entries);
}

void DependencyOracle::ApplyGraphDelta(const CsrGraph& new_graph,
                                       std::span<const GraphEdit> edits) {
  returned_.reset();
  // The carry reads the pre-edit pass engine's minimum incident weights,
  // so it runs before the engines are rebuilt.
  DependencyMemo::MinWeightFn old_min_weight;
  if (delta_) {
    old_min_weight = [old = delta_.get()](VertexId v) {
      return old->min_incident_weight(v);
    };
  }
  memo_ = memo_->Carry(new_graph, edits, spd_.tie_epsilon, old_min_weight);
  ++graph_epoch_;
  graph_ = &new_graph;
  // Rebuild the pass engine first: the new accumulator borrows its
  // intra-pass pool, so the pool must already belong to the new engine.
  if (new_graph.weighted()) {
    delta_ = std::make_unique<DeltaSpd>(new_graph, spd_);
    bfs_.reset();
    accumulator_ = DependencyAccumulator(new_graph, delta_->intra_pool(),
                                         spd_.parallel_grain);
  } else {
    bfs_ = std::make_unique<BfsSpd>(new_graph, spd_);
    delta_.reset();
    accumulator_ = DependencyAccumulator(new_graph, bfs_->intra_pool(),
                                         spd_.parallel_grain);
  }
}

const std::vector<double>& DependencyOracle::Dependencies(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  if (DependencyMemo::EntryPtr hit = memo_->Find(source)) {
    ++cache_hits_;
    returned_ = std::move(hit);
    return returned_->deps;
  }
  Pass(source);
  const std::vector<double>& deps = delta_ ? accumulator_.Accumulate(*delta_)
                                           : accumulator_.Accumulate(*bfs_);
  if (memo_->capacity() == 0) return deps;
  returned_ = memo_->Insert(source, deps);
  return returned_->deps;
}

const ShortestPathDag& DependencyOracle::Pass(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  ++num_passes_;
  if (delta_) {
    delta_->Run(source);
    return delta_->dag();
  }
  bfs_->Run(source);
  return bfs_->dag();
}

double DependencyOracle::Dependency(VertexId source, VertexId target) {
  MHBC_DCHECK(target < graph_->num_vertices());
  return Dependencies(source)[target];
}

double DependencyOracle::EstimatorTerm(VertexId v, VertexId r) {
  const double n = static_cast<double>(graph_->num_vertices());
  MHBC_DCHECK(n >= 2.0);
  return Dependency(v, r) / (n - 1.0);
}

}  // namespace mhbc
