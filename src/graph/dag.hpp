// Directed acyclic graph: the ground-truth object Bayesian networks are
// defined over, and the reference structure PC-stable tries to recover.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "graph/undirected_graph.hpp"

namespace fastbns {

class Dag {
 public:
  explicit Dag(VarId num_nodes);

  [[nodiscard]] VarId num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::int64_t num_edges() const noexcept { return num_edges_; }

  [[nodiscard]] bool has_edge(VarId from, VarId to) const noexcept;

  /// Adds from->to. Returns false (graph unchanged) if the edge exists,
  /// from == to, or adding it would create a directed cycle.
  bool add_edge(VarId from, VarId to);

  /// Adds from->to without the cycle check (caller guarantees acyclicity,
  /// e.g. edges follow a known topological order).
  void add_edge_unchecked(VarId from, VarId to);

  [[nodiscard]] const std::vector<VarId>& parents(VarId v) const noexcept {
    return parents_[v];
  }
  [[nodiscard]] const std::vector<VarId>& children(VarId v) const noexcept {
    return children_[v];
  }
  [[nodiscard]] VarId in_degree(VarId v) const noexcept {
    return static_cast<VarId>(parents_[v].size());
  }

  /// Nodes in a topological order (parents before children).
  [[nodiscard]] std::vector<VarId> topological_order() const;

  /// True when the current edge set is acyclic (always holds if edges were
  /// added through add_edge; provided for add_edge_unchecked users).
  [[nodiscard]] bool is_acyclic() const;

  /// All ancestors of the seed set (excluding seeds unless reachable).
  [[nodiscard]] std::vector<bool> ancestors_of(const std::vector<VarId>& seeds) const;

  /// Underlying undirected structure.
  [[nodiscard]] UndirectedGraph skeleton() const;

  /// All directed edges (from, to), lexicographically sorted.
  [[nodiscard]] std::vector<std::pair<VarId, VarId>> edges() const;

  [[nodiscard]] bool operator==(const Dag& other) const noexcept;

 private:
  [[nodiscard]] bool would_create_cycle(VarId from, VarId to) const;

  VarId n_;
  std::int64_t num_edges_ = 0;
  std::vector<std::vector<VarId>> parents_;
  std::vector<std::vector<VarId>> children_;
};

}  // namespace fastbns
