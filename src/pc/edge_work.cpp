#include "pc/edge_work.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace fastbns {

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
  std::vector<EdgeWork> works;
  works.reserve(group_endpoints ? edges : 2 * edges);

  if (depth == 0) {
    // Single marginal test I(x, y | {}) per work: no snapshot needed.
    for (VarId u = 0; u < n; ++u) {
      for (VarId v = u + 1; v < n; ++v) {
        if (!graph.has_edge(u, v)) continue;
        works.push_back({.x = u, .y = v, .total1 = 1});
        if (!group_endpoints) works.push_back({.x = v, .y = u, .total1 = 1});
      }
    }
    return works;
  }

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

void conditioning_set_for(const EdgeWork& work, std::int32_t depth,
                          std::uint64_t r, std::vector<VarId>& z_out) {
  z_out.resize(static_cast<std::size_t>(depth));
  if (depth == 0) return;
  std::array<std::int32_t, 32> indices{};
  assert(depth <= static_cast<std::int32_t>(indices.size()));
  const std::span<std::int32_t> index_span(indices.data(),
                                           static_cast<std::size_t>(depth));
  // Direction 1 draws from adj(x)\{y}, direction 2 from adj(y)\{x}: the
  // owner's row with the other endpoint's position skipped.
  const bool first = r < work.total1;
  const std::span<const VarId> row =
      work.snapshot->row(first ? work.x : work.y);
  const VarId excluded = first ? work.y : work.x;
  const auto skip = static_cast<std::int32_t>(
      std::lower_bound(row.begin(), row.end(), excluded) - row.begin());
  assert(static_cast<std::size_t>(skip) < row.size() &&
         row[static_cast<std::size_t>(skip)] == excluded);
  unrank_combination(static_cast<std::int32_t>(row.size()) - 1, depth,
                     first ? r : r - work.total1, index_span);
  for (std::int32_t i = 0; i < depth; ++i) {
    const std::int32_t index = indices[i];
    z_out[i] = row[static_cast<std::size_t>(index < skip ? index : index + 1)];
  }
}

std::int64_t run_edge_tests(EdgeWork& work, std::int32_t depth,
                            std::uint64_t group, CiTest& test,
                            std::vector<VarId>& z) {
  assert(group >= 1);
  const std::uint64_t total = work.total_tests();
  if (total == 0) return 0;
  test.begin_group(work.x, work.y);

  // The accepting rank stays in a local until the run ends: the loop
  // stores nothing into the works, whose neighbours other threads run.
  std::uint64_t accepted = kNotRemoved;
  std::uint64_t end = total;
  std::uint64_t r = 0;
  for (; r < end; ++r) {
    conditioning_set_for(work, depth, r, z);
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
