// Per-depth work units of skeleton discovery.
//
// An EdgeWork is one entry of the dynamic work pool: the edge's endpoints,
// the depth-snapshot candidate pools of its two directions, how many CI
// tests it has in total, and a progress cursor `r`. Conditioning sets are
// recovered from `r` by lexicographic unranking — the pool itself stores
// no set indices (Section IV-C, "generating conditioning sets on-the-fly").
#pragma once

#include <cstdint>
#include <vector>

#include "combinatorics/combination.hpp"
#include "common/types.hpp"
#include "graph/undirected_graph.hpp"
#include "pc/pc_options.hpp"
#include "stats/ci_test.hpp"

namespace fastbns {

struct EdgeWork {
  VarId x = kInvalidVar;  ///< first endpoint (the tested ordered direction)
  VarId y = kInvalidVar;  ///< second endpoint
  /// Snapshot candidates adj(x)\{y}; ascending.
  std::vector<VarId> candidates1;
  /// Snapshot candidates adj(y)\{x}; ascending. Empty for ungrouped works.
  std::vector<VarId> candidates2;
  std::uint64_t total1 = 0;  ///< C(|candidates1|, d)
  std::uint64_t total2 = 0;  ///< C(|candidates2|, d); 0 when ungrouped
  std::uint64_t progress = 0;  ///< next CI-test rank r

  // Outcome slots — written by exactly one thread (the current holder).
  bool removed = false;
  std::vector<VarId> sepset;

  [[nodiscard]] std::uint64_t total_tests() const noexcept {
    return total1 + total2;
  }
  [[nodiscard]] bool finished() const noexcept {
    return removed || progress >= total_tests();
  }
};

/// Builds the works of depth `d` from the current graph snapshot.
/// Grouped: one work per undirected edge covering both directions.
/// Ungrouped: two works per edge, (x, y) then (y, x), direction-1 only —
/// the classic PC-stable ordered-pair traversal.
/// Depth 0 is special-cased to a single marginal test per work (grouped)
/// per the paper's Section IV-B.
[[nodiscard]] std::vector<EdgeWork> build_depth_works(
    const UndirectedGraph& graph, std::int32_t depth, bool group_endpoints);

/// Reconstructs the conditioning set of test rank `r` of `work` at depth
/// `d` into `z_out` (ascending variable ids).
void conditioning_set_for(const EdgeWork& work, std::int32_t depth,
                          std::uint64_t r, std::vector<VarId>& z_out);

/// Runs up to `budget` CI tests of `work` from its progress cursor, in
/// canonical rank order, through the group protocol. The first accepting
/// test marks the work removed with its set as the sepset, so the
/// lowest-rank accepting set wins at any budget. With `early_stop` the
/// run ends there; without it the rest of the budget still executes (the
/// gs redundancy of Section IV-B). Conditioning sets are written into
/// `z`, a buffer the caller owns and reuses across calls. Returns the
/// number of CI tests executed.
std::int64_t run_edge_tests(EdgeWork& work, std::int32_t depth,
                            std::uint64_t budget, CiTest& test,
                            bool early_stop, std::vector<VarId>& z);

/// Materializes all conditioning sets of `work` (flattened, each of size
/// `depth`) — the naive baseline's memory-hungry strategy. Throws
/// std::runtime_error beyond `limit` sets.
[[nodiscard]] std::vector<VarId> materialize_conditioning_sets(
    const EdgeWork& work, std::int32_t depth,
    std::uint64_t limit = std::uint64_t{1} << 27);

/// The variable→shard ownership map of the process engine's ranks:
/// balanced contiguous id ranges, so adjacent variables share a shard and
/// a rank streams a compact slice of the dataset. Shards may outnumber
/// variables (trailing shards own nothing); every variable is owned by
/// exactly one shard.
class VariableShards {
 public:
  /// Throws std::invalid_argument when num_vars < 0 or num_shards < 1.
  VariableShards(VarId num_vars, std::int32_t num_shards);

  [[nodiscard]] std::int32_t shard_of(VarId v) const noexcept {
    return shard_of_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::int32_t num_shards() const noexcept {
    return num_shards_;
  }
  [[nodiscard]] VarId num_vars() const noexcept {
    return static_cast<VarId>(shard_of_.size());
  }

 private:
  std::vector<std::int32_t> shard_of_;
  std::int32_t num_shards_ = 1;
};

/// Shard-aware work-list construction: groups the indices of `works` by
/// the shard owning each work's lower endpoint (min(x, y) — one owner per
/// undirected edge, so grouped works and both directions of ungrouped
/// works land in the same shard). result[s] lists shard s's work indices
/// in ascending order; works without pending tests are included so a
/// shard's list mirrors its slice of the depth exactly.
[[nodiscard]] std::vector<std::vector<std::int64_t>> shard_work_indices(
    const std::vector<EdgeWork>& works, const VariableShards& shards);

}  // namespace fastbns
