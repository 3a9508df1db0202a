#include "sp/distance.h"

#include <queue>
#include <utility>

namespace mhbc {

std::vector<std::uint32_t> BfsDistancesTo(const CsrGraph& graph,
                                          VertexId target) {
  MHBC_DCHECK(target < graph.num_vertices());
  std::vector<std::uint32_t> dist(graph.num_vertices(), kUnreachedDistance);
  std::vector<VertexId> queue;
  queue.reserve(graph.num_vertices());
  queue.push_back(target);
  dist[target] = 0;
  std::size_t head = 0;
  while (head < queue.size()) {
    const VertexId u = queue[head++];
    for (VertexId v : graph.in_neighbors(u)) {
      if (dist[v] == kUnreachedDistance) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<double> DijkstraDistancesTo(const CsrGraph& graph,
                                        VertexId target) {
  MHBC_DCHECK(target < graph.num_vertices());
  const VertexId n = graph.num_vertices();
  std::vector<double> dist(n, -1.0);
  std::vector<char> settled(n, 0);
  using HeapEntry = std::pair<double, VertexId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  dist[target] = 0.0;
  heap.emplace(0.0, target);
  while (!heap.empty()) {
    const auto [du, u] = heap.top();
    heap.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    const auto nbrs = graph.in_neighbors(u);
    const auto wts = graph.in_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (settled[v]) continue;
      const double w = graph.weighted() ? wts[i] : 1.0;
      const double candidate = du + w;
      if (dist[v] < 0.0 || candidate < dist[v]) {
        dist[v] = candidate;
        heap.emplace(candidate, v);
      }
    }
  }
  return dist;
}

}  // namespace mhbc
