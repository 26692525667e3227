// Per-depth work units of skeleton discovery.
//
// An EdgeWork is the unit a thread claims whole: a flat 40-byte record of
// the edge's endpoints, a pointer to the depth's adjacency snapshot, how
// many CI tests each direction has and one outcome slot, the rank of the
// first accepting test. The candidate pools adj(x)\{y} and adj(y)\{x}
// are read off the snapshot, never copied, and a work stores no set
// indices (Section IV-C, "generating conditioning sets on-the-fly"): a
// run visits ranks in order, so it steps from each set to its
// lexicographic successor. Sets are unranked only where a rank comes
// alone: the commit recovers each removal's sepset from its accepting
// rank, and the naive baseline materializes every set that way.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "combinatorics/combination.hpp"
#include "common/types.hpp"
#include "graph/undirected_graph.hpp"
#include "pc/pc_options.hpp"
#include "stats/ci_test.hpp"

namespace fastbns {

/// One depth's adjacency in CSR form: the ascending neighbour ids of
/// every node, concatenated, plus an offset per node. A depth's works
/// point into one snapshot instead of each copying its candidate pools.
class AdjacencySnapshot {
 public:
  /// Rebuilds the snapshot from `graph` in one pass over its rows,
  /// reusing the buffers of the previous depth.
  void assign(const UndirectedGraph& graph);

  /// The neighbours of `v`, ascending.
  [[nodiscard]] std::span<const VarId> row(VarId v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    return {neighbors_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

 private:
  std::vector<std::size_t> offsets_;  ///< num_nodes + 1 entries
  std::vector<VarId> neighbors_;      ///< 2 * num_edges entries
};

/// The deepest level the driver runs, so the most variables a
/// conditioning set holds: the fixed index buffers of run_edge_tests and
/// conditioning_set_for have this many entries. No realistic dataset
/// supports sets anywhere near this deep.
inline constexpr std::int32_t kMaxConditioningDepth = 31;

/// `EdgeWork::accepted` while no test of the work has accepted. No rank
/// can take this value: ranks stay below total_tests() <= 2^64 - 1.
inline constexpr std::uint64_t kNotRemoved = ~std::uint64_t{0};

struct EdgeWork {
  VarId x = kInvalidVar;  ///< first endpoint (the tested ordered direction)
  VarId y = kInvalidVar;  ///< second endpoint
  /// The depth's adjacency: direction 1 draws from adj(x)\{y}, direction
  /// 2 from adj(y)\{x}. Null at depth 0, whose one test conditions on {}.
  const AdjacencySnapshot* snapshot = nullptr;
  std::uint64_t total1 = 0;  ///< C(|adj(x)\{y}|, d)
  std::uint64_t total2 = 0;  ///< C(|adj(y)\{x}|, d); 0 when ungrouped
  /// Outcome slot, written once by the thread that ran the work: the
  /// rank of the first accepting test, kNotRemoved while the edge stands.
  std::uint64_t accepted = kNotRemoved;

  [[nodiscard]] bool removed() const noexcept {
    return accepted != kNotRemoved;
  }
  /// total1 + total2, saturating like binomial(): a saturated count
  /// means more work than will ever finish.
  [[nodiscard]] std::uint64_t total_tests() const noexcept {
    return total2 > kBinomialSaturated - total1 ? kBinomialSaturated
                                                : total1 + total2;
  }
};
static_assert(std::is_trivially_copyable_v<EdgeWork> &&
                  sizeof(EdgeWork) <= 40,
              "EdgeWork is a flat record: a depth's list holds one per "
              "remaining edge, two when ungrouped");

/// Builds the works of depth `d` from `graph`, walking its edges u < v
/// in lexicographic order.
/// Grouped: one work per undirected edge covering both directions.
/// Ungrouped: two works per edge, (u, v) then (v, u), direction-1 only —
/// the classic PC-stable ordered-pair traversal.
/// Depth 0 is special-cased to a single marginal test per work (grouped)
/// per the paper's Section IV-B; its works need no snapshot. The driver
/// runs depth 0 without works (SkeletonEngine::run_depth_zero), so only
/// the seam's list-building default and the tests build depth-0 lists.
/// At depth >= 1 `snapshot` is rebuilt from `graph` and every work points
/// into it, so it must outlive the works and the commit that unranks
/// their sepsets.
[[nodiscard]] std::vector<EdgeWork> build_depth_works(
    const UndirectedGraph& graph, std::int32_t depth, bool group_endpoints,
    AdjacencySnapshot& snapshot);

/// The depth-0 works of the complete graph over `num_nodes` nodes,
/// without building that graph: build_depth_works(complete, 0, ...).
[[nodiscard]] std::vector<EdgeWork> build_depth_zero_works(
    VarId num_nodes, bool group_endpoints);

/// Reconstructs the conditioning set of test rank `r` of `work` at depth
/// `d` into `z_out` (ascending variable ids) by unranking: the rank's
/// subset of the owner's snapshot row with the other endpoint skipped.
/// Requires r < work.total_tests(). The commit calls it once per removal;
/// run_edge_tests produces the same sets by successor instead.
void conditioning_set_for(const EdgeWork& work, std::int32_t depth,
                          std::uint64_t r, std::vector<VarId>& z_out);

/// Runs the CI tests of `work` in canonical rank order through the group
/// protocol and records the first accepting test's rank in `accepted`,
/// so the lowest-rank accepting set wins at any `group` (>= 1). The run
/// stops at the end of the group [k * group, (k + 1) * group) in which
/// that test falls: the tests after it in its group still execute (the
/// gs redundancy of Section IV-B), and group 1 stops at the accepting
/// test itself. A work nothing accepts runs all its tests. The set of
/// rank r equals conditioning_set_for(work, depth, r), but the loop never
/// unranks: each direction starts at its first set and every later test
/// takes the lexicographic successor of the one before. Sets are written
/// into `z`, a buffer the caller owns and reuses across calls, so the
/// loop allocates nothing. Returns the number of CI tests executed.
std::int64_t run_edge_tests(EdgeWork& work, std::int32_t depth,
                            std::uint64_t group, CiTest& test,
                            std::vector<VarId>& z);

/// Materializes all conditioning sets of `work` (flattened, each of size
/// `depth`) — the naive baseline's memory-hungry strategy. Each set is
/// unranked on its own, so the naive rows stay a reference independent of
/// run_edge_tests' successor loop. Throws std::runtime_error beyond
/// `limit` sets.
[[nodiscard]] std::vector<VarId> materialize_conditioning_sets(
    const EdgeWork& work, std::int32_t depth,
    std::uint64_t limit = std::uint64_t{1} << 27);

}  // namespace fastbns
