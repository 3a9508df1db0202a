#include "sp/dijkstra_spd.h"

#include <cmath>
#include <limits>
#include <queue>
#include <utility>

namespace mhbc {

DijkstraSpd::DijkstraSpd(const CsrGraph& graph, double tie_epsilon)
    : graph_(&graph), tie_epsilon_(tie_epsilon) {
  MHBC_DCHECK(tie_epsilon_ >= 0.0);
  const VertexId n = graph.num_vertices();
  dag_.wdist.assign(n, -1.0);  // -1 marks unreached
  dag_.sigma.assign(n, 0);
  dag_.order.reserve(n);
  dag_.weighted = true;
  // parent_run indexes edges in 32 bits: a pass records at most one SPD
  // edge per in-arc.
  MHBC_DCHECK(graph.raw_in_adjacency().size() <=
              std::numeric_limits<std::uint32_t>::max());
  dag_.parent_run.assign(n, 0);
  // A parent reaches v over an in-edge, so v's parent list can never
  // outgrow its in-degree: the graph's in-CSR offsets ARE the lists' begin
  // offsets (they alias the out-CSR on undirected graphs).
  pred_begin_ = graph.raw_in_offsets().data();
  pred_count_.assign(n, 0);
  pred_storage_.assign(graph.raw_in_adjacency().size(), kInvalidVertex);
  settled_.assign(n, 0);
}

bool DijkstraSpd::Equal(double a, double b) const {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= tie_epsilon_ * scale;
}

void DijkstraSpd::Run(VertexId source) {
  MHBC_DCHECK(source < graph_->num_vertices());
  for (VertexId v : dag_.order) {
    dag_.wdist[v] = -1.0;
    dag_.sigma[v] = 0;
    pred_count_[v] = 0;
    settled_[v] = 0;
  }
  dag_.order.clear();
  dag_.level_offsets.clear();
  dag_.edges.clear();
  dag_.edge_offsets.clear();
  dag_.source = source;

  using HeapEntry = std::pair<double, VertexId>;  // (dist, vertex)
  // Lazy deletion: stale heap entries are skipped on pop.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;

  dag_.wdist[source] = 0.0;
  dag_.sigma[source] = 1;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [du, u] = heap.top();
    heap.pop();
    if (settled_[u]) continue;
    if (!Equal(du, dag_.wdist[u])) continue;  // stale entry
    settled_[u] = 1;
    // u is a level of its own. A settled vertex gains no more parents, so
    // its list is final and becomes its run: the level's edge slice.
    dag_.level_offsets.push_back(dag_.order.size());
    dag_.order.push_back(u);
    dag_.edge_offsets.push_back(dag_.edges.size());
    dag_.parent_run[u] = static_cast<std::uint32_t>(dag_.edges.size());
    const VertexId* parents = pred_storage_.data() + pred_begin_[u];
    for (std::uint32_t i = 0; i < pred_count_[u]; ++i) {
      dag_.edges.push_back({parents[i], u});
    }
    const auto nbrs = graph_->neighbors(u);
    const auto wts = graph_->weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      const double w = graph_->weighted() ? wts[i] : 1.0;
      const double candidate = dag_.wdist[u] + w;
      if (settled_[v]) continue;
      const double current = dag_.wdist[v];
      if (current < 0.0 || candidate < current - tie_epsilon_ * candidate) {
        // Strict improvement: reset predecessor set.
        dag_.wdist[v] = candidate;
        dag_.sigma[v] = dag_.sigma[u];
        pred_count_[v] = 1;
        pred_storage_[pred_begin_[v]] = u;
        heap.emplace(candidate, v);
      } else if (Equal(candidate, current)) {
        // Tie: u is an additional predecessor (each neighbor appears once
        // per pass, so no duplicate check is needed).
        dag_.sigma[v] += dag_.sigma[u];
        MHBC_DCHECK(pred_count_[v] < graph_->in_degree(v));
        pred_storage_[pred_begin_[v] + pred_count_[v]] = u;
        ++pred_count_[v];
      }
    }
  }
  dag_.level_offsets.push_back(dag_.order.size());
  dag_.edge_offsets.push_back(dag_.edges.size());
}

}  // namespace mhbc
