#include "graph/undirected_graph.hpp"

#include <cassert>

namespace fastbns {

UndirectedGraph::UndirectedGraph(VarId num_nodes)
    : n_(num_nodes),
      adj_(static_cast<std::size_t>(num_nodes) * static_cast<std::size_t>(num_nodes), 0),
      degree_(static_cast<std::size_t>(num_nodes), 0) {
  assert(num_nodes >= 0);
}

UndirectedGraph UndirectedGraph::complete(VarId num_nodes) {
  UndirectedGraph g(num_nodes);
  for (VarId u = 0; u < num_nodes; ++u) {
    for (VarId v = u + 1; v < num_nodes; ++v) {
      g.add_edge(u, v);
    }
  }
  return g;
}

bool UndirectedGraph::add_edge(VarId u, VarId v) noexcept {
  assert(u >= 0 && u < n_ && v >= 0 && v < n_);
  if (u == v || has_edge(u, v)) return false;
  adj_[index(u, v)] = 1;
  adj_[index(v, u)] = 1;
  ++degree_[u];
  ++degree_[v];
  ++num_edges_;
  return true;
}

bool UndirectedGraph::remove_edge(VarId u, VarId v) noexcept {
  assert(u >= 0 && u < n_ && v >= 0 && v < n_);
  if (u == v || !has_edge(u, v)) return false;
  adj_[index(u, v)] = 0;
  adj_[index(v, u)] = 0;
  --degree_[u];
  --degree_[v];
  --num_edges_;
  return true;
}

std::vector<VarId> UndirectedGraph::neighbors(VarId v) const {
  std::vector<VarId> result;
  result.reserve(static_cast<std::size_t>(degree_[v]));
  const std::uint8_t* row = adj_.data() + index(v, 0);
  for (VarId u = 0; u < n_; ++u) {
    if (row[u] != 0) result.push_back(u);
  }
  return result;
}

std::vector<std::pair<VarId, VarId>> UndirectedGraph::edges() const {
  std::vector<std::pair<VarId, VarId>> result;
  result.reserve(static_cast<std::size_t>(num_edges_));
  for (VarId u = 0; u < n_; ++u) {
    for (VarId v = u + 1; v < n_; ++v) {
      if (has_edge(u, v)) result.emplace_back(u, v);
    }
  }
  return result;
}

double UndirectedGraph::mean_degree() const noexcept {
  if (n_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) / static_cast<double>(n_);
}

}  // namespace fastbns
