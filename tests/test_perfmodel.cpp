#include "perfmodel/speedup_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace fastbns {
namespace {

TEST(PerfModel, PaperWorkedExampleValues) {
  // Section IV-D: t=4, d=2, |Ed|=1200, rho=0.6, degree 10, B=64,
  // TDRAM/Tcache=8 must give S_CI=3.87, S_grouping=1.43, S_cache=5.57,
  // S=30.8 (paper's reported rounding).
  const OverallModelParams params = paper_example_params();
  EXPECT_NEAR(ci_level_speedup(params.ci), 3.87, 0.005);
  EXPECT_NEAR(grouping_speedup(params.deletion_ratio), 1.43, 0.005);
  EXPECT_NEAR(cache_speedup(params.cache), 5.57, 0.01);
  EXPECT_NEAR(overall_speedup(params), 30.8, 0.05);
}

TEST(PerfModel, CiSpeedupIsOneForSingleThread) {
  CiLevelModelParams params;
  params.edges = 100;
  params.mean_degree = 8;
  params.depth = 2;
  params.threads = 1;
  EXPECT_DOUBLE_EQ(ci_level_speedup(params), 1.0);
}

TEST(PerfModel, CiSpeedupGrowsWithThreads) {
  CiLevelModelParams params;
  params.edges = 1000;
  params.mean_degree = 10;
  params.depth = 2;
  double previous = 0.0;
  for (const int threads : {1, 2, 4, 8, 16, 32}) {
    params.threads = threads;
    const double speedup = ci_level_speedup(params);
    EXPECT_GT(speedup, previous);
    EXPECT_LE(speedup, threads);  // never superlinear in this model
    previous = speedup;
  }
}

TEST(PerfModel, CiSpeedupInvalidParamsThrow) {
  CiLevelModelParams params;
  params.edges = 0;
  params.threads = 2;
  EXPECT_THROW((void)ci_level_speedup(params), std::invalid_argument);
  params.edges = 10;
  params.threads = 0;
  EXPECT_THROW((void)ci_level_speedup(params), std::invalid_argument);
}

TEST(PerfModel, GroupingSpeedupBounds) {
  EXPECT_DOUBLE_EQ(grouping_speedup(0.0), 1.0);  // nothing deleted
  EXPECT_DOUBLE_EQ(grouping_speedup(1.0), 2.0);  // everything deleted
  EXPECT_NEAR(grouping_speedup(0.5), 4.0 / 3.0, 1e-12);
  EXPECT_THROW((void)grouping_speedup(-0.1), std::invalid_argument);
  EXPECT_THROW((void)grouping_speedup(1.5), std::invalid_argument);
}

TEST(PerfModel, GroupingSpeedupMonotoneInDeletionRatio) {
  double previous = 0.0;
  for (double rho = 0.0; rho <= 1.0; rho += 0.1) {
    const double speedup = grouping_speedup(rho);
    EXPECT_GT(speedup, previous);
    previous = speedup;
  }
}

TEST(PerfModel, CacheSpeedupApproachesDramRatioForLongLines) {
  CacheModelParams params;
  params.depth = 2;
  params.dram_to_cache_ratio = 8.0;
  params.value_bytes = 4.0;
  params.cache_line_bytes = 1 << 20;  // enormous line
  EXPECT_NEAR(cache_speedup(params), 8.0, 0.01);
}

TEST(PerfModel, CacheSpeedupIsOneWhenLineHoldsOneValue) {
  CacheModelParams params;
  params.depth = 3;
  params.cache_line_bytes = 4.0;
  params.value_bytes = 4.0;
  // One value per line: both layouts miss identically.
  EXPECT_DOUBLE_EQ(cache_speedup(params), 1.0);
}

TEST(PerfModel, CacheSpeedupIndependentOfDepth) {
  // (d+2) factors cancel in T3/T4.
  CacheModelParams a;
  a.depth = 0;
  CacheModelParams b;
  b.depth = 10;
  EXPECT_DOUBLE_EQ(cache_speedup(a), cache_speedup(b));
}

TEST(PerfModel, OverallIsProductOfFactors) {
  const OverallModelParams params = paper_example_params();
  EXPECT_DOUBLE_EQ(overall_speedup(params),
                   ci_level_speedup(params.ci) *
                       grouping_speedup(params.deletion_ratio) *
                       cache_speedup(params.cache));
}

}  // namespace
}  // namespace fastbns
