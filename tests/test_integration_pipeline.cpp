// Cross-module integration: the user journey through public APIs — sample
// a network built in code, persist the records to CSV, reload them and
// learn the structure.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.hpp"
#include "dataset/dataset_io.hpp"
#include "graph/graph_metrics.hpp"
#include "network/forward_sampler.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"
#include "scoped_temp_dir.hpp"

namespace fastbns {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  ScopedTempDir dir_{"fastbns_pipeline_"};
};

TEST_F(PipelineTest, SampleToCsvToLearnedSkeleton) {
  // 1. Sample records from ALARM and persist them as CSV.
  const BayesianNetwork alarm = alarm_network();
  Rng rng(41);
  const DiscreteDataset sampled = forward_sample(alarm, 3000, rng);
  const std::string csv_path = (dir_.path() / "records.csv").string();
  ASSERT_TRUE(save_csv(sampled, alarm.variable_names(), csv_path));

  // 2. Reload the CSV with explicit cardinalities (cardinalities read
  //    off the data would miss a never-observed state).
  const NamedDataset records =
      load_csv(csv_path, DataLayout::kColumnMajor, alarm.cardinalities());
  ASSERT_EQ(records.data.num_samples(), 3000);
  ASSERT_EQ(records.names, alarm.variable_names());

  // 3. Learn the structure and check quality.
  PcOptions options;
  options.engine = EngineKind::kCiParallel;
  options.num_threads = 2;
  options.group_size = 6;
  const PcStableResult learned = learn_structure(records.data, options);
  const SkeletonMetrics metrics =
      compare_skeletons(learned.skeleton.graph, alarm.dag().skeleton());
  EXPECT_GT(metrics.f1(), 0.8);
}

TEST_F(PipelineTest, CsvRoundTripPreservesLearnedStructure) {
  const BayesianNetwork network = alarm_network();
  Rng rng(43);
  const DiscreteDataset original = forward_sample(network, 1200, rng);
  const std::string path = (dir_.path() / "roundtrip.csv").string();
  ASSERT_TRUE(save_csv(original, network.variable_names(), path));
  const NamedDataset reloaded =
      load_csv(path, DataLayout::kColumnMajor, network.cardinalities());

  const PcStableResult from_original = learn_structure(original, {});
  const PcStableResult from_reloaded = learn_structure(reloaded.data, {});
  EXPECT_TRUE(from_original.cpdag == from_reloaded.cpdag);
}

}  // namespace
}  // namespace fastbns
