// Undirected graph used as the PC-stable skeleton.
//
// Dense flag-matrix representation: skeleton discovery starts from the
// complete graph over up to ~1000 nodes and performs O(1) edge tests and
// removals in hot loops, so an n*n byte matrix plus degree counters beats
// hash sets by a wide margin.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace fastbns {

class UndirectedGraph {
 public:
  /// Empty graph over `num_nodes` nodes.
  explicit UndirectedGraph(VarId num_nodes);

  /// Complete graph over `num_nodes` nodes (PC-stable's starting point).
  [[nodiscard]] static UndirectedGraph complete(VarId num_nodes);

  [[nodiscard]] VarId num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::int64_t num_edges() const noexcept { return num_edges_; }

  [[nodiscard]] bool has_edge(VarId u, VarId v) const noexcept {
    return adj_[index(u, v)] != 0;
  }

  /// Adds u-v; no-op when present or u == v. Returns true if added.
  bool add_edge(VarId u, VarId v) noexcept;

  /// Removes u-v; no-op when absent. Returns true if removed.
  bool remove_edge(VarId u, VarId v) noexcept;

  [[nodiscard]] VarId degree(VarId v) const noexcept { return degree_[v]; }

  /// Neighbors of v in ascending order (allocates; snapshot semantics).
  [[nodiscard]] std::vector<VarId> neighbors(VarId v) const;

  /// All edges as ordered pairs (u < v), lexicographically sorted.
  [[nodiscard]] std::vector<std::pair<VarId, VarId>> edges() const;

  [[nodiscard]] double mean_degree() const noexcept;

  [[nodiscard]] bool operator==(const UndirectedGraph& other) const noexcept {
    return n_ == other.n_ && adj_ == other.adj_;
  }

 private:
  [[nodiscard]] std::size_t index(VarId u, VarId v) const noexcept {
    return static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(v);
  }

  VarId n_;
  std::int64_t num_edges_ = 0;
  std::vector<std::uint8_t> adj_;
  std::vector<VarId> degree_;
};

}  // namespace fastbns
