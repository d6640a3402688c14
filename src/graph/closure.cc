#include "graph/closure.h"

#include <algorithm>

namespace relser {

TransitiveClosure TransitiveClosure::FromDagOrder(
    const Digraph& graph, const std::vector<NodeId>& topo_order) {
  const std::size_t n = graph.node_count();
  RELSER_CHECK_MSG(topo_order.size() == n,
                   "topological order covers " << topo_order.size() << " of "
                                               << n << " nodes");
  TransitiveClosure closure(n);
  // Process sinks first: reach(v) = union over successors s of {s} ∪ reach(s).
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const NodeId node = *it;
    std::uint64_t* row = &closure.words_[node * closure.stride_];
    for (const NodeId succ : graph.OutNeighbors(node)) {
      row[succ >> 6] |= (1ULL << (succ & 63));
      const std::uint64_t* reach = &closure.words_[succ * closure.stride_];
      for (std::size_t w = 0; w < closure.stride_; ++w) row[w] |= reach[w];
    }
  }
  return closure;
}

TransitiveClosure TransitiveClosure::FromAnyGraph(const Digraph& graph) {
  const std::size_t n = graph.node_count();
  TransitiveClosure closure(n);
  std::vector<NodeId> stack;
  std::vector<bool> seen(n);
  for (NodeId source = 0; source < n; ++source) {
    std::fill(seen.begin(), seen.end(), false);
    stack.assign(graph.OutNeighbors(source).begin(),
                 graph.OutNeighbors(source).end());
    while (!stack.empty()) {
      const NodeId node = stack.back();
      stack.pop_back();
      if (seen[node]) continue;
      seen[node] = true;
      closure.SetBit(source, node);
      for (const NodeId succ : graph.OutNeighbors(node)) {
        if (!seen[succ]) stack.push_back(succ);
      }
    }
  }
  return closure;
}

}  // namespace relser
