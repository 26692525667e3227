#include "pc/edge_work.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "pc/pair_index.hpp"

namespace fastbns {
namespace {

/// Pool indices of one conditioning set, the first `depth` entries used.
using SetIndices = std::array<std::int32_t, kMaxConditioningDepth>;

/// One direction's candidate pool: adj(x)\{y} for direction 1, adj(y)\{x}
/// for direction 2, read as the owner's snapshot row with the other
/// endpoint's position skipped. Both the run's successor loop and
/// conditioning_set_for map pool indices to variable ids through it.
class CandidatePool {
 public:
  CandidatePool() = default;
  CandidatePool(const EdgeWork& work, bool first_direction)
      : row_(work.snapshot->row(first_direction ? work.x : work.y)) {
    const VarId excluded = first_direction ? work.y : work.x;
    skip_ = static_cast<std::int32_t>(
        std::lower_bound(row_.begin(), row_.end(), excluded) - row_.begin());
    assert(static_cast<std::size_t>(skip_) < row_.size() &&
           row_[static_cast<std::size_t>(skip_)] == excluded);
  }

  /// The pool's size: the row without the skipped endpoint.
  [[nodiscard]] std::int32_t size() const noexcept {
    return static_cast<std::int32_t>(row_.size()) - 1;
  }

  /// Writes the variables at the ascending pool `indices` into `z`, which
  /// holds indices.size() entries.
  void write(std::span<const std::int32_t> indices,
             std::vector<VarId>& z) const noexcept {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::int32_t index = indices[i];
      z[i] = row_[static_cast<std::size_t>(index < skip_ ? index : index + 1)];
    }
  }

 private:
  std::span<const VarId> row_;
  std::int32_t skip_ = 0;  ///< the skipped endpoint's position in row_
};

/// Depth 0's works over the pairs u < v that `keep` accepts, in
/// lexicographic order: one marginal test I(x, y | {}) per work, so no
/// snapshot.
template <typename Keep>
std::vector<EdgeWork> depth_zero_works(VarId n, bool group_endpoints,
                                       std::size_t edges, Keep keep) {
  std::vector<EdgeWork> works;
  works.reserve(group_endpoints ? edges : 2 * edges);
  for (VarId u = 0; u < n; ++u) {
    for (VarId v = u + 1; v < n; ++v) {
      if (!keep(u, v)) continue;
      works.push_back({.x = u, .y = v, .total1 = 1});
      if (!group_endpoints) works.push_back({.x = v, .y = u, .total1 = 1});
    }
  }
  return works;
}

}  // namespace

void AdjacencySnapshot::assign(const UndirectedGraph& graph) {
  const VarId n = graph.num_nodes();
  offsets_.resize(static_cast<std::size_t>(n) + 1);
  neighbors_.resize(2 * static_cast<std::size_t>(graph.num_edges()));
  std::size_t next = 0;
  for (VarId v = 0; v < n; ++v) {
    offsets_[static_cast<std::size_t>(v)] = next;
    for (VarId u = 0; u < n; ++u) {
      if (graph.has_edge(v, u)) neighbors_[next++] = u;
    }
  }
  offsets_[static_cast<std::size_t>(n)] = next;
}

std::vector<EdgeWork> build_depth_works(const UndirectedGraph& graph,
                                        std::int32_t depth,
                                        bool group_endpoints,
                                        AdjacencySnapshot& snapshot) {
  const VarId n = graph.num_nodes();
  const auto edges = static_cast<std::size_t>(graph.num_edges());
  if (depth == 0) {
    return depth_zero_works(n, group_endpoints, edges, [&](VarId u, VarId v) {
      return graph.has_edge(u, v);
    });
  }

  std::vector<EdgeWork> works;
  works.reserve(group_endpoints ? edges : 2 * edges);
  snapshot.assign(graph);
  // C(|adj(v)| - 1, d): the test count of every direction v owns.
  std::vector<std::uint64_t> pool_tests(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    pool_tests[static_cast<std::size_t>(v)] = binomial(
        static_cast<std::int64_t>(snapshot.row(v).size()) - 1, depth);
  }
  for (VarId u = 0; u < n; ++u) {
    const std::span<const VarId> row = snapshot.row(u);
    const std::uint64_t total_u = pool_tests[static_cast<std::size_t>(u)];
    // The neighbours above u, ascending: edges in (u < v) order.
    for (auto it = std::upper_bound(row.begin(), row.end(), u);
         it != row.end(); ++it) {
      const VarId v = *it;
      const std::uint64_t total_v = pool_tests[static_cast<std::size_t>(v)];
      // Grouped: one work covering both directions. Ungrouped: the
      // classic ordered-pair traversal, (u, v) then (v, u), direction 1
      // only.
      if (group_endpoints) {
        works.push_back({.x = u, .y = v, .snapshot = &snapshot,
                         .total1 = total_u, .total2 = total_v});
      } else {
        works.push_back(
            {.x = u, .y = v, .snapshot = &snapshot, .total1 = total_u});
        works.push_back(
            {.x = v, .y = u, .snapshot = &snapshot, .total1 = total_v});
      }
    }
  }
  return works;
}

std::vector<EdgeWork> build_depth_zero_works(VarId num_nodes,
                                             bool group_endpoints) {
  return depth_zero_works(num_nodes, group_endpoints,
                          static_cast<std::size_t>(pair_count(num_nodes)),
                          [](VarId, VarId) { return true; });
}

void conditioning_set_for(const EdgeWork& work, std::int32_t depth,
                          std::uint64_t r, std::vector<VarId>& z_out) {
  z_out.resize(static_cast<std::size_t>(depth));
  if (depth == 0) return;
  assert(depth <= kMaxConditioningDepth);
  SetIndices buffer{};
  const std::span<std::int32_t> indices(buffer.data(),
                                        static_cast<std::size_t>(depth));
  const bool first = r < work.total1;
  const CandidatePool pool(work, first);
  unrank_combination(pool.size(), depth, first ? r : r - work.total1,
                     indices);
  pool.write(indices, z_out);
}

std::int64_t run_edge_tests(EdgeWork& work, std::int32_t depth,
                            std::uint64_t group, CiTest& test,
                            std::vector<VarId>& z) {
  assert(group >= 1);
  const std::uint64_t total = work.total_tests();
  if (total == 0) return 0;
  test.begin_group(work.x, work.y);
  z.resize(static_cast<std::size_t>(depth));
  assert(depth <= kMaxConditioningDepth);
  SetIndices buffer{};
  const std::span<std::int32_t> indices(buffer.data(),
                                        static_cast<std::size_t>(depth));
  CandidatePool pool;

  // The accepting rank stays in a local until the run ends: the loop
  // stores nothing into the works, whose neighbours other threads run.
  std::uint64_t accepted = kNotRemoved;
  std::uint64_t end = total;
  std::uint64_t r = 0;
  for (; r < end; ++r) {
    // Sets by lexicographic successor: a direction starts at pool indices
    // {0, ..., d-1} (direction 2 at rank total1, so at rank 0 when
    // direction 1 has no test) and every other rank advances the last
    // set. Depth 0 tests the empty set and never reads the snapshot.
    if (depth > 0) {
      if (r == 0 || r == work.total1) {
        pool = CandidatePool(work, /*first_direction=*/r < work.total1);
        std::iota(indices.begin(), indices.end(), 0);
      } else {
        [[maybe_unused]] const bool advanced =
            next_combination(pool.size(), indices);
        assert(advanced);
      }
      pool.write(indices, z);
    }
    if (test.test_in_group(z).independent && accepted == kNotRemoved) {
      // Lowest-rank accepting set defines the sepset (determinism across
      // engines and thread counts); its group still runs to the end.
      accepted = r;
      const std::uint64_t group_begin = r - r % group;
      end = group_begin + std::min(group, total - group_begin);
    }
  }
  if (accepted != kNotRemoved) work.accepted = accepted;
  return static_cast<std::int64_t>(r);
}

std::vector<VarId> materialize_conditioning_sets(const EdgeWork& work,
                                                 std::int32_t depth,
                                                 std::uint64_t limit) {
  const std::uint64_t total = work.total_tests();
  if (total > limit) {
    throw std::runtime_error(
        "materialize_conditioning_sets: conditioning-set table exceeds limit; "
        "use the on-the-fly engines for this problem size");
  }
  std::vector<VarId> flat;
  flat.reserve(static_cast<std::size_t>(total) *
               static_cast<std::size_t>(depth));
  std::vector<VarId> z;
  for (std::uint64_t r = 0; r < total; ++r) {
    conditioning_set_for(work, depth, r, z);
    flat.insert(flat.end(), z.begin(), z.end());
  }
  return flat;
}

}  // namespace fastbns
