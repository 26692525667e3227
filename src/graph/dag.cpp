#include "graph/dag.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

namespace fastbns {

Dag::Dag(VarId num_nodes)
    : n_(num_nodes),
      parents_(static_cast<std::size_t>(num_nodes)),
      children_(static_cast<std::size_t>(num_nodes)) {
  assert(num_nodes >= 0);
}

bool Dag::has_edge(VarId from, VarId to) const noexcept {
  const auto& kids = children_[from];
  return std::find(kids.begin(), kids.end(), to) != kids.end();
}

bool Dag::add_edge(VarId from, VarId to) {
  assert(from >= 0 && from < n_ && to >= 0 && to < n_);
  if (from == to || has_edge(from, to) || would_create_cycle(from, to)) {
    return false;
  }
  add_edge_unchecked(from, to);
  return true;
}

void Dag::add_edge_unchecked(VarId from, VarId to) {
  children_[from].push_back(to);
  parents_[to].push_back(from);
  // Keep neighbor lists sorted: CPT parent ordering and comparisons rely
  // on a canonical order.
  std::sort(children_[from].begin(), children_[from].end());
  std::sort(parents_[to].begin(), parents_[to].end());
  ++num_edges_;
}

bool Dag::would_create_cycle(VarId from, VarId to) const {
  // from->to creates a cycle iff `from` is reachable from `to`.
  std::vector<bool> visited(static_cast<std::size_t>(n_), false);
  std::deque<VarId> queue{to};
  visited[to] = true;
  while (!queue.empty()) {
    const VarId v = queue.front();
    queue.pop_front();
    if (v == from) return true;
    for (const VarId child : children_[v]) {
      if (!visited[child]) {
        visited[child] = true;
        queue.push_back(child);
      }
    }
  }
  return false;
}

std::vector<VarId> Dag::topological_order() const {
  std::vector<VarId> in_deg(static_cast<std::size_t>(n_));
  for (VarId v = 0; v < n_; ++v) in_deg[v] = in_degree(v);
  std::deque<VarId> ready;
  for (VarId v = 0; v < n_; ++v) {
    if (in_deg[v] == 0) ready.push_back(v);
  }
  std::vector<VarId> order;
  order.reserve(static_cast<std::size_t>(n_));
  while (!ready.empty()) {
    const VarId v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (const VarId child : children_[v]) {
      if (--in_deg[child] == 0) ready.push_back(child);
    }
  }
  return order;  // shorter than n_ iff cyclic
}

bool Dag::is_acyclic() const {
  return static_cast<VarId>(topological_order().size()) == n_;
}

std::vector<bool> Dag::ancestors_of(const std::vector<VarId>& seeds) const {
  std::vector<bool> result(static_cast<std::size_t>(n_), false);
  std::deque<VarId> queue;
  for (const VarId seed : seeds) {
    for (const VarId parent : parents_[seed]) {
      if (!result[parent]) {
        result[parent] = true;
        queue.push_back(parent);
      }
    }
  }
  while (!queue.empty()) {
    const VarId v = queue.front();
    queue.pop_front();
    for (const VarId parent : parents_[v]) {
      if (!result[parent]) {
        result[parent] = true;
        queue.push_back(parent);
      }
    }
  }
  return result;
}

UndirectedGraph Dag::skeleton() const {
  UndirectedGraph g(n_);
  for (VarId v = 0; v < n_; ++v) {
    for (const VarId child : children_[v]) {
      g.add_edge(v, child);
    }
  }
  return g;
}

std::vector<std::pair<VarId, VarId>> Dag::edges() const {
  std::vector<std::pair<VarId, VarId>> result;
  result.reserve(static_cast<std::size_t>(num_edges_));
  for (VarId v = 0; v < n_; ++v) {
    for (const VarId child : children_[v]) {
      result.emplace_back(v, child);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

bool Dag::operator==(const Dag& other) const noexcept {
  return n_ == other.n_ && children_ == other.children_;
}

}  // namespace fastbns
