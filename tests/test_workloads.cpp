#include "bench_util/workloads.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/runner.hpp"
#include "engine/engine_registry.hpp"
#include "fuzz_util.hpp"

namespace fastbns {
namespace {

TEST(Workloads, MakeWorkloadShapes) {
  const Workload workload = make_workload("alarm", 500);
  EXPECT_EQ(workload.name, "alarm");
  EXPECT_EQ(workload.network.num_nodes(), 37);
  EXPECT_EQ(workload.data.num_vars(), 37);
  EXPECT_EQ(workload.data.num_samples(), 500);
  EXPECT_TRUE(workload.data.is_discrete());
  EXPECT_TRUE(workload.data.discrete().has_row_major());
  EXPECT_TRUE(workload.data.discrete().has_column_major());
  EXPECT_EQ(workload.data.discrete().cardinalities(),
            workload.network.cardinalities());
}

TEST(Workloads, DeterministicPerNameAndSize) {
  const Workload a = make_workload("insurance", 300);
  const Workload b = make_workload("insurance", 300);
  for (Count s = 0; s < 300; ++s) {
    for (VarId v = 0; v < a.data.num_vars(); ++v) {
      ASSERT_EQ(a.data.discrete().value(s, v), b.data.discrete().value(s, v));
    }
  }
}

TEST(Workloads, DifferentSampleCountsDiffer) {
  const Workload a = make_workload("alarm", 100);
  const Workload b = make_workload("alarm", 200);
  EXPECT_EQ(a.data.num_samples(), 100);
  EXPECT_EQ(b.data.num_samples(), 200);
}

TEST(Workloads, UnknownNetworkThrows) {
  EXPECT_THROW((void)make_workload("nope", 100), std::invalid_argument);
}

TEST(Workloads, ScaleDefaultsToSmall) {
  unsetenv("FASTBNS_BENCH_SCALE");
  EXPECT_EQ(bench_scale(), BenchScale::kSmall);
}

TEST(Workloads, ScaleEnvSelectsPaper) {
  setenv("FASTBNS_BENCH_SCALE", "paper", 1);
  EXPECT_EQ(bench_scale(), BenchScale::kPaper);
  unsetenv("FASTBNS_BENCH_SCALE");
}

TEST(Workloads, PaperScaleUsesFullGrid) {
  EXPECT_EQ(comparison_networks(BenchScale::kPaper).size(), 8u);
  EXPECT_EQ(comparison_samples(BenchScale::kPaper, 5000), 5000);
  EXPECT_EQ(thread_grid(BenchScale::kPaper),
            (std::vector<int>{1, 2, 4, 8, 16, 32}));
}

TEST(Workloads, SmallScaleReducesGrid) {
  const auto networks = comparison_networks(BenchScale::kSmall);
  EXPECT_GE(networks.size(), 4u);
  EXPECT_LT(networks.size(), 8u);
  EXPECT_EQ(comparison_samples(BenchScale::kSmall, 5000), 2000);
  EXPECT_LE(thread_grid(BenchScale::kSmall).back(), 8);
}

const Workload& alarm_workload() {
  static const Workload workload = make_workload("alarm", 1000);
  return workload;
}

TEST(RunSkeleton, EveryConfigLearnsTheSequentialResult) {
  const Workload& workload = alarm_workload();
  const VarId n = workload.data.num_vars();
  const EngineRunResult reference =
      run_skeleton(workload, fastbns_seq_config());
  const fuzz::SkeletonFingerprint expected =
      fuzz::fingerprint(reference.skeleton, n);

  std::vector<std::pair<std::string, EngineRunConfig>> configs;
  for (const std::string& name : list_engines()) {
    EngineRunConfig config = engine_config_from_name(name, 2);
    config.rank_count = 2;  // read by the process engine only
    configs.emplace_back(name, config);
  }
  configs.emplace_back("baseline-par", baseline_par_config(2));
  EngineRunConfig row_major = fastbns_seq_config();
  row_major.row_major = true;
  configs.emplace_back("seq row-major", row_major);
  EngineRunConfig materialized = fastbns_seq_config();
  materialized.on_the_fly_sets = false;
  configs.emplace_back("seq materialized", materialized);
  EngineRunConfig ungrouped = fastbns_seq_config();
  ungrouped.group_endpoints = false;
  configs.emplace_back("seq ungrouped", ungrouped);

  for (const auto& [label, config] : configs) {
    const EngineRunResult run = run_skeleton(workload, config);
    const fuzz::SkeletonFingerprint actual = fuzz::fingerprint(run.skeleton, n);
    EXPECT_TRUE(actual == expected)
        << label << ": " << fuzz::describe_divergence(expected, actual, n);
    // Ungrouped runs test both directions of an edge separately, so only
    // the grouped configs must execute exactly the reference's tests.
    const bool grouped = config.group_endpoints &&
                         config.engine != EngineKind::kNaiveSequential;
    if (grouped) {
      EXPECT_EQ(run.ci_tests, reference.ci_tests) << label;
    }
  }
}

TEST(RunSkeleton, MaxDepthCapsTheRun) {
  const Workload& workload = alarm_workload();
  ASSERT_GT(run_skeleton(workload, fastbns_seq_config()).max_depth, 1);
  EngineRunConfig capped = fastbns_seq_config();
  capped.max_depth = 1;
  EXPECT_EQ(run_skeleton(workload, capped).max_depth, 1);
}

}  // namespace
}  // namespace fastbns
