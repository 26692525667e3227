#include "pc/edge_work.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/dag.hpp"
#include "stats/oracle_test.hpp"

namespace fastbns {
namespace {

/// 5-node graph: 0-1, 0-2, 1-2, 2-3, 3-4.
UndirectedGraph small_graph() {
  UndirectedGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  return g;
}

/// The set unranked from a removed work's accepting rank: what the commit
/// records as its sepset.
std::vector<VarId> accepted_set(const EdgeWork& work, std::int32_t depth) {
  std::vector<VarId> z;
  conditioning_set_for(work, depth, work.accepted, z);
  return z;
}

TEST(BuildDepthWorks, DepthZeroGroupedHasOneTestPerEdge) {
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(small_graph(), 0, true, snapshot);
  ASSERT_EQ(works.size(), 5u);
  for (const EdgeWork& work : works) {
    EXPECT_EQ(work.total_tests(), 1u);
    EXPECT_FALSE(work.removed());
    EXPECT_EQ(work.accepted, kNotRemoved);
    EXPECT_EQ(work.snapshot, nullptr);  // one marginal test, no pools
  }
}

TEST(BuildDepthWorks, DepthZeroUngroupedHasTwoWorksPerEdge) {
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(small_graph(), 0, false, snapshot);
  ASSERT_EQ(works.size(), 10u);
  // Ordered directions alternate: (x,y) then (y,x).
  EXPECT_EQ(works[0].x, works[1].y);
  EXPECT_EQ(works[0].y, works[1].x);
}

TEST(BuildDepthWorks, WalksEdgesInLexicographicOrder) {
  // The order every engine's work indices, pair skips and the process
  // engine's wire protocol rely on: (u, v) with u < v, lexicographic,
  // identical at depth 0 (graph rows) and depth >= 1 (snapshot rows).
  const UndirectedGraph g = small_graph();
  for (const std::int32_t depth : {0, 1}) {
    AdjacencySnapshot snapshot;
    const auto grouped = build_depth_works(g, depth, true, snapshot);
    const auto edges = g.edges();
    ASSERT_EQ(grouped.size(), edges.size()) << "depth " << depth;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ(grouped[i].x, edges[i].first) << "depth " << depth;
      EXPECT_EQ(grouped[i].y, edges[i].second) << "depth " << depth;
    }
    const auto ungrouped = build_depth_works(g, depth, false, snapshot);
    ASSERT_EQ(ungrouped.size(), 2 * edges.size()) << "depth " << depth;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ(ungrouped[2 * i].x, edges[i].first);
      EXPECT_EQ(ungrouped[2 * i].y, edges[i].second);
      EXPECT_EQ(ungrouped[2 * i + 1].x, edges[i].second);
      EXPECT_EQ(ungrouped[2 * i + 1].y, edges[i].first);
      EXPECT_EQ(ungrouped[2 * i + 1].total2, 0u);
    }
  }
}

TEST(BuildDepthWorks, DepthOneTotalsMatchAdjacency) {
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(small_graph(), 1, true, snapshot);
  // Edge (0,1): adj(0)\{1} = {2} -> C(1,1)=1; adj(1)\{0} = {2} -> 1.
  const EdgeWork& edge01 = works[0];
  EXPECT_EQ(edge01.x, 0);
  EXPECT_EQ(edge01.y, 1);
  EXPECT_EQ(edge01.total1, 1u);
  EXPECT_EQ(edge01.total2, 1u);
  EXPECT_EQ(edge01.snapshot, &snapshot);
  // Edge (2,3): adj(2)\{3} = {0,1} -> C(2,1)=2; adj(3)\{2} = {4} -> 1.
  const EdgeWork& edge23 = works[3];
  EXPECT_EQ(edge23.x, 2);
  EXPECT_EQ(edge23.total1, 2u);
  EXPECT_EQ(edge23.total2, 1u);
}

TEST(BuildDepthWorks, DepthTwoSkipsUndersizedPools) {
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(small_graph(), 2, true, snapshot);
  // Edge (3,4): adj(3)\{4} = {2} (1 < 2) and adj(4)\{3} = {} -> 0 tests.
  const EdgeWork& edge34 = works[4];
  EXPECT_EQ(edge34.total_tests(), 0u);
}

TEST(EdgeWork, TotalTestsSaturatesInsteadOfWrapping) {
  // binomial() saturates at kBinomialSaturated ("more work than we will
  // ever finish"); the sum of two directions must keep that meaning
  // instead of wrapping to a tiny count (here: 2).
  EdgeWork work;
  work.total1 = kBinomialSaturated;
  work.total2 = 3;
  EXPECT_EQ(work.total_tests(), kBinomialSaturated);
}

TEST(ConditioningSetFor, MapsRankThroughBothDirections) {
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(small_graph(), 1, true, snapshot);
  const EdgeWork& edge23 = works[3];  // adj(2)\{3}={0,1}, adj(3)\{2}={4}
  std::vector<VarId> z;
  conditioning_set_for(edge23, 1, 0, z);
  EXPECT_EQ(z, (std::vector<VarId>{0}));
  conditioning_set_for(edge23, 1, 1, z);
  EXPECT_EQ(z, (std::vector<VarId>{1}));
  conditioning_set_for(edge23, 1, 2, z);  // second direction
  EXPECT_EQ(z, (std::vector<VarId>{4}));
}

TEST(ConditioningSetFor, DepthZeroIsEmpty) {
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(small_graph(), 0, true, snapshot);
  std::vector<VarId> z{99};
  conditioning_set_for(works[0], 0, 0, z);
  EXPECT_TRUE(z.empty());
}

/// Every q-subset of `pool` (ascending), in lexicographic order.
std::vector<std::vector<VarId>> brute_force_subsets(
    const std::vector<VarId>& pool, std::int32_t q) {
  std::vector<std::vector<VarId>> subsets;
  for (std::uint32_t mask = 0; mask < (1u << pool.size()); ++mask) {
    if (std::popcount(mask) != q) continue;
    std::vector<VarId> subset;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if ((mask >> i & 1u) != 0) subset.push_back(pool[i]);
    }
    subsets.push_back(std::move(subset));
  }
  std::sort(subsets.begin(), subsets.end());
  return subsets;
}

/// adj(owner)\{excluded}, read from the graph rather than a snapshot.
std::vector<VarId> pool_of(const UndirectedGraph& g, VarId owner,
                           VarId excluded) {
  std::vector<VarId> pool = g.neighbors(owner);
  pool.erase(std::find(pool.begin(), pool.end(), excluded));
  return pool;
}

/// Records every conditioning set it is asked about and accepts none, so
/// run_edge_tests visits all of a work's ranks.
class RecordingTest final : public CiTest {
 public:
  CiResult test(VarId, VarId, std::span<const VarId> z) override {
    ++tests_performed_;
    sets.emplace_back(z.begin(), z.end());
    return {.independent = false};
  }
  [[nodiscard]] std::unique_ptr<CiTest> clone() const override {
    return std::make_unique<RecordingTest>(*this);
  }

  std::vector<std::vector<VarId>> sets;
};

TEST(ConditioningSetFor, EveryRankMatchesBruteForceAroundTheSkippedEndpoint) {
  // 7 nodes, complete minus {0-6, 2-4, 3-5}: rows of different lengths in
  // which the excluded endpoint sits first, in the middle or last. Then
  // small_graph() at depth 2, whose edge (0, 2) has no test in direction
  // 1 and one in direction 2. Both conditioning_set_for (by unranking)
  // and run_edge_tests (by successor) must list the brute-force sets.
  UndirectedGraph seven = UndirectedGraph::complete(7);
  seven.remove_edge(0, 6);
  seven.remove_edge(2, 4);
  seven.remove_edge(3, 5);
  const std::vector<std::pair<UndirectedGraph, std::int32_t>> cases = {
      {seven, 1}, {seven, 2}, {seven, 3}, {small_graph(), 2}};
  int first = 0;
  int middle = 0;
  int last = 0;
  int direction2_only = 0;
  for (const auto& [g, depth] : cases) {
    for (const bool grouped : {true, false}) {
      AdjacencySnapshot snapshot;
      const auto works = build_depth_works(g, depth, grouped, snapshot);
      ASSERT_EQ(works.size(), static_cast<std::size_t>(
                                  grouped ? g.num_edges() : 2 * g.num_edges()));
      std::vector<VarId> z;
      for (const EdgeWork& work : works) {
        // Direction 1 owns adj(x)\{y}; grouped works continue with
        // direction 2, adj(y)\{x}.
        std::vector<std::vector<VarId>> expected =
            brute_force_subsets(pool_of(g, work.x, work.y), depth);
        ASSERT_EQ(work.total1, expected.size());
        if (grouped) {
          const auto second =
              brute_force_subsets(pool_of(g, work.y, work.x), depth);
          ASSERT_EQ(work.total2, second.size());
          expected.insert(expected.end(), second.begin(), second.end());
          if (work.total1 == 0 && work.total2 > 0) ++direction2_only;
        } else {
          ASSERT_EQ(work.total2, 0u);
        }
        for (std::uint64_t r = 0; r < work.total_tests(); ++r) {
          conditioning_set_for(work, depth, r, z);
          EXPECT_EQ(z, expected[r])
              << "depth " << depth << (grouped ? " grouped" : " ungrouped")
              << " work (" << work.x << ", " << work.y << ") rank " << r;
        }
        EdgeWork run = work;
        RecordingTest recorder;
        const std::int64_t executed = run_edge_tests(run, depth, 1, recorder, z);
        EXPECT_EQ(executed, static_cast<std::int64_t>(expected.size()));
        EXPECT_FALSE(run.removed());
        EXPECT_EQ(recorder.sets, expected)
            << "depth " << depth << (grouped ? " grouped" : " ungrouped")
            << " work (" << work.x << ", " << work.y << ")";
        // Where the excluded endpoint sits in each owner's row.
        for (const auto& [owner, excluded] :
             {std::pair{work.x, work.y}, std::pair{work.y, work.x}}) {
          if (!grouped && owner == work.y) continue;
          const std::vector<VarId> row = g.neighbors(owner);
          if (excluded == row.front()) {
            ++first;
          } else if (excluded == row.back()) {
            ++last;
          } else {
            ++middle;
          }
        }
      }
    }
  }
  EXPECT_GT(first, 0);
  EXPECT_GT(middle, 0);
  EXPECT_GT(last, 0);
  EXPECT_GT(direction2_only, 0);  // (0, 2) of small_graph() at depth 2
}

/// Oracle over chain 0 -> 1 -> 2 -> 3 -> 4; at depth 1 the edge (0, 2)
/// separates given {1}.
Dag chain_dag() {
  Dag dag(5);
  for (VarId v = 0; v + 1 < 5; ++v) dag.add_edge(v, v + 1);
  return dag;
}

/// Depth-1 works of the triangle 0-1-2, whose edge (0, 2) the chain
/// oracle separates given {1}. The works point into `snapshot`.
std::vector<EdgeWork> triangle_depth_one_works(AdjacencySnapshot& snapshot) {
  UndirectedGraph g(5);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  return build_depth_works(g, 1, true, snapshot);
}

EdgeWork& work_for(std::vector<EdgeWork>& works, VarId x, VarId y) {
  for (EdgeWork& work : works) {
    if (work.x == x && work.y == y) return work;
  }
  throw std::logic_error("no work for the requested edge");
}

TEST(RunEdgeTests, GroupOneStopsAtTheFirstAcceptingSet) {
  const Dag dag = chain_dag();
  DSeparationOracle oracle(dag);
  AdjacencySnapshot snapshot;
  auto works = triangle_depth_one_works(snapshot);
  EdgeWork& edge02 = work_for(works, 0, 2);
  std::vector<VarId> z;
  const std::int64_t executed = run_edge_tests(edge02, 1, 1, oracle, z);
  EXPECT_TRUE(edge02.removed());
  EXPECT_EQ(edge02.accepted, 0u);
  EXPECT_EQ(accepted_set(edge02, 1), (std::vector<VarId>{1}));
  EXPECT_EQ(executed, 1);  // {1} is the first candidate of adj(0)\{2}
}

TEST(RunEdgeTests, AGroupRunsToItsEndAfterAnAccept) {
  // The gs-group redundancy: the tests after the accepting one in its
  // group still execute, but the lowest-rank accepting set still wins.
  const Dag dag = chain_dag();
  DSeparationOracle oracle(dag);
  AdjacencySnapshot snapshot;
  auto works = triangle_depth_one_works(snapshot);
  EdgeWork& edge02 = work_for(works, 0, 2);
  const std::uint64_t total = edge02.total_tests();
  std::vector<VarId> z;
  const std::int64_t executed = run_edge_tests(edge02, 1, total, oracle, z);
  EXPECT_EQ(executed, static_cast<std::int64_t>(total));  // no early break
  EXPECT_TRUE(edge02.removed());
  EXPECT_EQ(accepted_set(edge02, 1), (std::vector<VarId>{1}));
}

TEST(RunEdgeTests, EveryGroupSizeRunsToTheEndOfTheAcceptingGroup) {
  // Chain 0 -> ... -> 4 plus 5 -> 6, over K5 minus {0-1} plus the lone
  // edge 5-6: depth-1 works that the oracle removes at rank 0 or 2 (once
  // in direction 2), works it keeps, and a work with no test. Each work
  // runs afresh at every group size.
  Dag dag(7);
  for (VarId v = 0; v + 1 < 5; ++v) dag.add_edge(v, v + 1);
  dag.add_edge(5, 6);
  DSeparationOracle oracle(dag);
  UndirectedGraph g(7);
  for (VarId u = 0; u < 5; ++u) {
    for (VarId v = u + 1; v < 5; ++v) g.add_edge(u, v);
  }
  g.remove_edge(0, 1);
  g.add_edge(5, 6);
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(g, 1, true, snapshot);

  int removed = 0;
  int removed_in_direction2 = 0;
  int kept = 0;
  int empty = 0;
  std::vector<VarId> z;
  for (const EdgeWork& fresh : works) {
    const std::uint64_t total = fresh.total_tests();
    // The first accepting rank, found one test at a time.
    std::uint64_t first = kNotRemoved;
    for (std::uint64_t r = 0; r < total && first == kNotRemoved; ++r) {
      conditioning_set_for(fresh, 1, r, z);
      if (oracle.test(fresh.x, fresh.y, z).independent) first = r;
    }
    if (total == 0) {
      ++empty;
    } else if (first == kNotRemoved) {
      ++kept;
    } else {
      ++removed;
      if (first >= fresh.total1) ++removed_in_direction2;
    }
    for (const std::uint64_t group : {std::uint64_t{1}, std::uint64_t{2},
                                      std::uint64_t{3}, total + 1}) {
      EdgeWork work = fresh;
      const std::int64_t executed = run_edge_tests(work, 1, group, oracle, z);
      const std::uint64_t expected =
          first == kNotRemoved
              ? total
              : std::min(total, (first / group + 1) * group);
      EXPECT_EQ(executed, static_cast<std::int64_t>(expected))
          << "work (" << work.x << ", " << work.y << ") group " << group;
      EXPECT_EQ(work.accepted, first)
          << "work (" << work.x << ", " << work.y << ") group " << group;
    }
  }
  EXPECT_GT(removed, removed_in_direction2);
  EXPECT_GT(removed_in_direction2, 0);  // (0, 2), given {1} from adj(2)
  EXPECT_GT(kept, 0);
  EXPECT_EQ(empty, 1);
}

TEST(RunEdgeTests, ReusedBufferFromADeeperCallYieldsTheShallowSepset) {
  // Engines keep one conditioning-set buffer per thread across works and
  // depths, so a call may start with a longer set left in it. The
  // accepted set and the test count must not notice.
  const Dag dag = chain_dag();
  DSeparationOracle oracle(dag);
  for (const std::uint64_t group : {1, 8}) {
    std::vector<VarId> z;
    AdjacencySnapshot deep_snapshot;
    auto deep = build_depth_works(UndirectedGraph::complete(5), 2, true,
                                  deep_snapshot);
    run_edge_tests(deep[0], 2, 1, oracle, z);
    ASSERT_EQ(z.size(), 2u);
    AdjacencySnapshot snapshot;
    auto works = triangle_depth_one_works(snapshot);
    EdgeWork& edge02 = work_for(works, 0, 2);
    const std::int64_t executed = run_edge_tests(edge02, 1, group, oracle, z);
    EXPECT_TRUE(edge02.removed());
    EXPECT_EQ(accepted_set(edge02, 1), (std::vector<VarId>{1}))
        << "group=" << group;
    EXPECT_EQ(executed, group == 1
                            ? 1
                            : static_cast<std::int64_t>(edge02.total_tests()));
  }
}

TEST(MaterializeConditioningSets, EnumeratesAllSetsInOrder) {
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(small_graph(), 1, true, snapshot);
  const EdgeWork& edge23 = works[3];  // totals 2 + 1
  const std::vector<VarId> flat = materialize_conditioning_sets(edge23, 1);
  EXPECT_EQ(flat, (std::vector<VarId>{0, 1, 4}));
}

TEST(MaterializeConditioningSets, LimitGuard) {
  UndirectedGraph g = UndirectedGraph::complete(40);
  AdjacencySnapshot snapshot;
  const auto works = build_depth_works(g, 3, true, snapshot);
  EXPECT_THROW((void)materialize_conditioning_sets(works[0], 3, /*limit=*/10),
               std::runtime_error);
}

}  // namespace
}  // namespace fastbns
