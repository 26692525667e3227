#include "pc/work_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/omp_utils.hpp"

namespace fastbns {
namespace {

using Indices = std::vector<std::int64_t>;

/// Pops at most one index; empty when the stack is momentarily dry.
Indices pop_one(WorkPool& pool) {
  Indices out;
  pool.try_pop_batch(1, out);
  return out;
}

TEST(WorkPool, PopsLowestIndexFirst) {
  WorkPool pool({0, 1, 2}, 3);
  EXPECT_EQ(pop_one(pool), Indices{0});
  EXPECT_EQ(pop_one(pool), Indices{1});
  EXPECT_EQ(pop_one(pool), Indices{2});
  EXPECT_EQ(pop_one(pool), Indices{});
}

TEST(WorkPool, PushReturnsWorkLifo) {
  WorkPool pool({0, 1}, 2);
  ASSERT_EQ(pop_one(pool), Indices{0});
  pool.push_batch({0});
  EXPECT_EQ(pop_one(pool), Indices{0});  // most recently pushed pops first
}

TEST(WorkPool, AllCompleteTracksOutstanding) {
  WorkPool pool({0, 1}, 2);
  EXPECT_FALSE(pool.all_complete());
  pool.mark_complete();
  EXPECT_FALSE(pool.all_complete());
  pool.mark_complete();
  EXPECT_TRUE(pool.all_complete());
}

TEST(WorkPool, EmptyPoolWithOutstandingWorkIsNotComplete) {
  WorkPool pool({0}, 1);
  ASSERT_EQ(pop_one(pool), Indices{0});
  // Stack empty but the edge is in flight.
  EXPECT_EQ(pop_one(pool), Indices{});
  EXPECT_FALSE(pool.all_complete());
  pool.push_batch({0});
  EXPECT_EQ(pop_one(pool), Indices{0});
  pool.mark_complete();
  EXPECT_TRUE(pool.all_complete());
}

TEST(WorkPool, ZeroWorkIsImmediatelyComplete) {
  WorkPool pool({}, 0);
  EXPECT_TRUE(pool.all_complete());
  EXPECT_EQ(pop_one(pool), Indices{});
}

TEST(WorkPool, BatchPopTakesUpToRequested) {
  WorkPool pool({0, 1, 2, 3, 4}, 5);
  std::vector<std::int64_t> out;
  EXPECT_EQ(pool.try_pop_batch(3, out), 3u);
  EXPECT_EQ(out, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(pool.try_pop_batch(10, out), 2u);
  EXPECT_EQ(out, (std::vector<std::int64_t>{3, 4}));
  EXPECT_EQ(pool.try_pop_batch(1, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(WorkPool, BatchPushReturnsAllItems) {
  WorkPool pool({}, 3);
  pool.push_batch({7, 8, 9});
  std::vector<std::int64_t> out;
  EXPECT_EQ(pool.try_pop_batch(10, out), 3u);
  // LIFO: last pushed (9) pops first.
  EXPECT_EQ(out, (std::vector<std::int64_t>{9, 8, 7}));
  pool.push_batch({});  // no-op
  EXPECT_EQ(pool.try_pop_batch(1, out), 0u);
}

/// Drains `pool` the way the CI-level engine's team does: each thread
/// claims up to `claim` indices, visits each (`visit` returns true once
/// that work is finished), marks the finished ones complete and pushes
/// the rest back. The team follows OMP_NUM_THREADS like the engine's, but
/// has at least two threads so the pool is always contended.
template <typename Visit>
void drain_like_the_engine(WorkPool& pool, std::size_t claim, Visit visit) {
  const auto worker = [&] {
    std::vector<std::int64_t> claimed;
    std::vector<std::int64_t> keep;
    while (!pool.all_complete()) {
      if (pool.try_pop_batch(claim, claimed) == 0) {
        std::this_thread::yield();
        continue;
      }
      keep.clear();
      for (const std::int64_t index : claimed) {
        if (visit(index)) {
          pool.mark_complete();
        } else {
          keep.push_back(index);
        }
      }
      pool.push_batch(keep);
    }
  };
  std::vector<std::thread> team;
  for (int t = 0; t < std::max(2, hardware_threads()); ++t) {
    team.emplace_back(worker);
  }
  for (std::thread& thread : team) thread.join();
}

TEST(WorkPool, ConcurrentDrainProcessesEveryItemExactlyOnce) {
  constexpr std::int64_t kItems = 2000;
  for (const std::size_t claim : {1, 8}) {
    std::vector<std::int64_t> initial(kItems);
    for (std::int64_t i = 0; i < kItems; ++i) initial[i] = i;
    WorkPool pool(std::move(initial), kItems);

    std::vector<std::atomic<int>> seen(kItems);
    drain_like_the_engine(pool, claim, [&](std::int64_t index) {
      seen[index].fetch_add(1);
      return true;
    });
    for (std::int64_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(seen[i].load(), 1) << "claim " << claim << " item " << i;
    }
    EXPECT_TRUE(pool.all_complete());
  }
}

TEST(WorkPool, ConcurrentPushBackRetainsWork) {
  // Each item is pushed back twice before completing (progress simulation).
  constexpr std::int64_t kItems = 500;
  for (const std::size_t claim : {1, 8}) {
    std::vector<std::int64_t> initial(kItems);
    for (std::int64_t i = 0; i < kItems; ++i) initial[i] = i;
    WorkPool pool(std::move(initial), kItems);

    std::vector<std::atomic<int>> visits(kItems);
    drain_like_the_engine(pool, claim, [&](std::int64_t index) {
      return visits[index].fetch_add(1) + 1 == 3;
    });
    for (std::int64_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(visits[i].load(), 3) << "claim " << claim << " item " << i;
    }
  }
}

}  // namespace
}  // namespace fastbns
