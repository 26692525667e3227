#include "cachesim/cache_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cachesim/access_replay.hpp"

namespace fastbns {
namespace {

TEST(CacheModel, ColdMissThenHit) {
  CacheModel cache({1024, 64, 2});
  EXPECT_FALSE(cache.access(0));   // cold miss
  EXPECT_TRUE(cache.access(0));    // hit
  EXPECT_TRUE(cache.access(63));   // same line
  EXPECT_FALSE(cache.access(64));  // next line
  EXPECT_EQ(cache.stats().accesses, 4);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(CacheModel, LruEvictionOrder) {
  // 2-way, 64B lines, 2 sets (256B total). Lines 0 and 2 map to set 0.
  CacheModel cache({256, 64, 2});
  EXPECT_FALSE(cache.access(0));        // set0 = [0]
  EXPECT_FALSE(cache.access(2 * 64));   // set0 = [2, 0]
  EXPECT_TRUE(cache.access(0));         // set0 = [0, 2]
  EXPECT_FALSE(cache.access(4 * 64));   // evicts 2; set0 = [4, 0]
  EXPECT_TRUE(cache.access(0));         // 0 survived (was MRU)
  EXPECT_FALSE(cache.access(2 * 64));   // 2 was evicted
}

TEST(CacheModel, InvalidGeometryThrows) {
  EXPECT_THROW(CacheModel({0, 64, 8}), std::invalid_argument);
  EXPECT_THROW(CacheModel({64, 0, 1}), std::invalid_argument);
  EXPECT_THROW(CacheModel({64, 64, 4}), std::invalid_argument);
}

TEST(CacheModel, ResetClearsContentsAndStats) {
  CacheModel cache({1024, 64, 2});
  cache.access(0);
  cache.access(0);
  cache.reset();
  EXPECT_EQ(cache.stats().accesses, 0);
  EXPECT_FALSE(cache.access(0));  // cold again
}

TEST(CacheModel, SequentialScanMissesOncePerLine) {
  CacheModel cache({32 * 1024, 64, 8});
  for (std::uint64_t byte = 0; byte < 4096; ++byte) {
    cache.access(byte);
  }
  EXPECT_EQ(cache.stats().accesses, 4096);
  EXPECT_EQ(cache.stats().misses, 4096 / 64);
  EXPECT_NEAR(cache.stats().miss_rate(), 1.0 / 64.0, 1e-9);
}

TEST(CacheModel, LargeStrideMissesEveryAccess) {
  CacheModel cache({1024, 64, 2});  // tiny cache
  for (int i = 0; i < 100; ++i) {
    cache.access(static_cast<std::uint64_t>(i) * 4096);
  }
  EXPECT_EQ(cache.stats().misses, 100);
}

TEST(MemoryHierarchy, MissesFallThroughToLastLevel) {
  MemoryHierarchy hierarchy({256, 64, 2}, {4096, 64, 4});
  hierarchy.access(0);
  hierarchy.access(0);
  EXPECT_EQ(hierarchy.l1().accesses, 2);
  EXPECT_EQ(hierarchy.l1().misses, 1);
  EXPECT_EQ(hierarchy.last_level().accesses, 1);  // only the L1 miss
  EXPECT_EQ(hierarchy.last_level().misses, 1);
}

TEST(MemoryHierarchy, L1HitsNeverReachLastLevel) {
  MemoryHierarchy hierarchy({1024, 64, 2}, {4096, 64, 4});
  for (int i = 0; i < 50; ++i) hierarchy.access(128);
  EXPECT_EQ(hierarchy.last_level().accesses, 1);
}

TEST(ReplayTrace, ColumnMajorBeatsRowMajor) {
  // The Table IV effect in miniature: the same CI-test trace replayed
  // under both layouts must show fewer misses for column-major storage.
  std::vector<TracedCiCall> trace;
  for (VarId x = 0; x < 8; ++x) {
    for (VarId y = x + 1; y < 8; ++y) {
      trace.push_back({x, y, {static_cast<VarId>((x + y) % 8)}});
    }
  }
  ReplayConfig config;
  config.num_samples = 4096;
  config.num_vars = 64;
  config.value_bytes = 1;
  config.l1 = {4 * 1024, 64, 8};         // deliberately small L1
  config.last_level = {64 * 1024, 64, 16};

  config.column_major = true;
  const ReplayResult col = replay_trace(trace, config);
  config.column_major = false;
  const ReplayResult row = replay_trace(trace, config);

  EXPECT_EQ(col.l1.accesses, row.l1.accesses);  // same logical work
  EXPECT_LT(col.l1.misses, row.l1.misses);
  EXPECT_LT(col.l1.miss_rate(), row.l1.miss_rate());
}

TEST(ReplayTrace, ColumnMajorMissRateNearOncePerLine) {
  // One long test over fresh columns: misses ~ accesses / line_size.
  std::vector<TracedCiCall> trace{{0, 1, {2, 3}}};
  ReplayConfig config;
  config.num_samples = 64 * 1024;
  config.num_vars = 8;
  config.value_bytes = 1;
  config.l1 = {4 * 1024, 64, 8};
  config.last_level = {64 * 1024, 64, 16};
  config.column_major = true;
  const ReplayResult result = replay_trace(trace, config);
  EXPECT_NEAR(result.l1.miss_rate(), 1.0 / 64.0, 2e-3);
}

TEST(ReplayTrace, EmptyTraceProducesNoAccesses) {
  const ReplayResult result = replay_trace({}, ReplayConfig{});
  EXPECT_EQ(result.l1.accesses, 0);
  EXPECT_EQ(result.last_level.accesses, 0);
}

}  // namespace
}  // namespace fastbns
