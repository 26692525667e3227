#include "pc/skeleton.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine_registry.hpp"
#include "graph/dag.hpp"
#include "network/random_network.hpp"
#include "stats/oracle_test.hpp"

namespace fastbns {
namespace {

Dag chain_dag(VarId n) {
  Dag dag(n);
  for (VarId v = 0; v + 1 < n; ++v) dag.add_edge(v, v + 1);
  return dag;
}

TEST(Skeleton, OracleRecoversChainSkeleton) {
  const Dag dag = chain_dag(6);
  DSeparationOracle oracle(dag);
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  const SkeletonResult result = learn_skeleton(6, oracle, options);
  EXPECT_TRUE(result.graph == dag.skeleton());
}

TEST(Skeleton, OracleRecoversColliderSkeleton) {
  Dag dag(3);
  dag.add_edge(0, 1);
  dag.add_edge(2, 1);
  DSeparationOracle oracle(dag);
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  const SkeletonResult result = learn_skeleton(3, oracle, options);
  EXPECT_TRUE(result.graph == dag.skeleton());
  // (0, 2) separated by the empty set at depth 0.
  const auto* sepset = result.sepsets.find(0, 2);
  ASSERT_NE(sepset, nullptr);
  EXPECT_TRUE(sepset->empty());
}

TEST(Skeleton, SepsetsRecordedForRemovedEdges) {
  const Dag dag = chain_dag(5);
  DSeparationOracle oracle(dag);
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  const SkeletonResult result = learn_skeleton(5, oracle, options);
  // (0, 2) removed conditioning on {1}.
  const auto* sepset = result.sepsets.find(0, 2);
  ASSERT_NE(sepset, nullptr);
  EXPECT_EQ(*sepset, (std::vector<VarId>{1}));
  // Every non-adjacent pair has a sepset.
  for (VarId u = 0; u < 5; ++u) {
    for (VarId v = u + 1; v < 5; ++v) {
      if (!result.graph.has_edge(u, v)) {
        EXPECT_NE(result.sepsets.find(u, v), nullptr) << u << "," << v;
      }
    }
  }
}

TEST(Skeleton, DepthStatsAreCoherent) {
  const Dag dag = chain_dag(6);
  DSeparationOracle oracle(dag);
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  const SkeletonResult result = learn_skeleton(6, oracle, options);
  ASSERT_FALSE(result.depth_stats.empty());
  EXPECT_EQ(result.depth_stats[0].depth, 0);
  EXPECT_EQ(result.depth_stats[0].edges_at_start, 15);  // complete K6
  std::int64_t total = 0;
  for (const DepthStats& stats : result.depth_stats) {
    total += stats.ci_tests;
    EXPECT_GE(stats.edges_removed, 0);
    EXPECT_LE(stats.edges_removed, stats.edges_at_start);
    EXPECT_GE(stats.deletion_ratio(), 0.0);
    EXPECT_LE(stats.deletion_ratio(), 1.0);
  }
  EXPECT_EQ(total, result.total_ci_tests);
  EXPECT_EQ(result.max_depth_reached,
            result.depth_stats.back().depth);
}

TEST(Skeleton, MaxDepthLimitsSearch) {
  const Dag dag = chain_dag(6);
  DSeparationOracle oracle(dag);
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  options.max_depth = 0;
  const SkeletonResult result = learn_skeleton(6, oracle, options);
  EXPECT_EQ(result.max_depth_reached, 0);
  // Depth 0 alone cannot disconnect a chain's 2-hop pairs.
  EXPECT_GT(result.graph.num_edges(), dag.num_edges());
}

TEST(Skeleton, InvalidGroupSizeThrows) {
  const Dag dag = chain_dag(3);
  DSeparationOracle oracle(dag);
  PcOptions options;
  options.group_size = 0;
  EXPECT_THROW((void)learn_skeleton(3, oracle, options), std::invalid_argument);
}

TEST(Skeleton, ValidateMessagesNameTheOffendingValue) {
  // Every rejection must carry the value the caller actually passed — a
  // validation error surfacing from a sweep script that names only the
  // field sends the user back to a debugger for a typo.
  const auto rejection_message = [](const PcOptions& options) {
    try {
      options.validate();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  const auto expect_mentions = [&](const PcOptions& options,
                                   const std::string& value) {
    const std::string message = rejection_message(options);
    ASSERT_FALSE(message.empty()) << "expected a rejection naming " << value;
    EXPECT_NE(message.find(value), std::string::npos) << message;
  };
  PcOptions options;
  options.group_size = -7;
  expect_mentions(options, "-7");
  options = {};
  options.alpha = 1.5;
  expect_mentions(options, "1.5");
  options = {};
  options.max_depth = -9;
  expect_mentions(options, "-9");
  options = {};
  options.num_threads = -3;
  expect_mentions(options, "-3");
  options = {};
  options.num_threads = PcOptions::kMaxThreads + 1;
  expect_mentions(options, std::to_string(PcOptions::kMaxThreads + 1));
  options = {};
  options.rank_count = -5;
  expect_mentions(options, "-5");
  options = {};
  options.rank_count = PcOptions::kMaxRanks + 3;
  expect_mentions(options, std::to_string(PcOptions::kMaxRanks + 3));
  options = {};
  options.rank_threads = -6;
  expect_mentions(options, "-6");
  options = {};
  options.rank_threads = PcOptions::kMaxThreads + 4;
  expect_mentions(options, std::to_string(PcOptions::kMaxThreads + 4));
  // Each field within its own cap, but their product is the thread count
  // a degraded run starts in one process: both values are named.
  options = {};
  options.rank_count = 17;
  options.rank_threads = 1000;
  expect_mentions(options, "17 x 1000");
  options.rank_count = PcOptions::kMaxRanks;
  options.rank_threads = PcOptions::kMaxThreads;
  expect_mentions(options, std::to_string(PcOptions::kMaxRanks) + " x " +
                               std::to_string(PcOptions::kMaxThreads));
  // A product at the cap still passes.
  options.rank_count = 2;
  options.rank_threads = PcOptions::kMaxThreads / 2;
  EXPECT_NO_THROW(options.validate());
  options = {};
  options.table_builder = "vectorised";
  expect_mentions(options, "vectorised");
  // A retired kernel name is rejected too, not silently ignored, and the
  // message points at the switch that forces the scalar passes.
  options.table_builder = "simd";
  expect_mentions(options, "simd");
  expect_mentions(options, "FASTBNS_SIMD");
  options = {};
  options.max_table_cells = 3;
  expect_mentions(options, "3");
  options = {};
  options.max_rank_restarts = -2;
  expect_mentions(options, "-2");
  options = {};
  options.max_rank_restarts = PcOptions::kMaxRankRestarts + 5;
  expect_mentions(options, std::to_string(PcOptions::kMaxRankRestarts + 5));
  // A typoed fault schedule fails validation naming the offending entry,
  // so a CI fault sweep with a misspelled kind fails instead of silently
  // running fault-free.
  options = {};
  options.fault_schedule = "explode@rank=1";
  expect_mentions(options, "explode");
}

TEST(Skeleton, ValidateRejectsNonsensicalOptionsUpFront) {
  const Dag dag = chain_dag(3);
  DSeparationOracle oracle(dag);
  // A table cap that cannot hold even a 2x2 marginal table would skip
  // every CI test, so the run must fail before the depth loop, not
  // degenerate inside an engine.
  PcOptions tiny_cap;
  tiny_cap.max_table_cells = 3;
  EXPECT_THROW(tiny_cap.validate(), std::invalid_argument);
  EXPECT_THROW((void)learn_skeleton(3, oracle, tiny_cap), std::invalid_argument);
  // Thread counts beyond kMaxThreads are typos, not machines.
  PcOptions typo_threads;
  typo_threads.num_threads = PcOptions::kMaxThreads + 1;
  EXPECT_THROW(typo_threads.validate(), std::invalid_argument);
  // Any table_builder but "auto" fails up front, like engine names.
  PcOptions typo_builder;
  typo_builder.table_builder = "vectorised";
  EXPECT_THROW(typo_builder.validate(), std::invalid_argument);
  // Unknown CI-test names too, and the message names the offending value
  // plus the known vocabulary (the PR 5 error-message convention).
  PcOptions typo_ci_test;
  typo_ci_test.ci_test = "pearson";
  try {
    typo_ci_test.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("pearson"), std::string::npos) << message;
    EXPECT_NE(message.find("gaussian"), std::string::npos) << message;
  }
  // Unknown IPC transports too — "socket" included, since pipes are the
  // only rank channel: the message must name the value and the accepted
  // vocabulary.
  for (const char* transport : {"shared-memory", "socket"}) {
    PcOptions typo_transport;
    typo_transport.ipc_transport = transport;
    try {
      typo_transport.validate();
      ADD_FAILURE() << "expected std::invalid_argument for " << transport;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(transport), std::string::npos) << message;
      EXPECT_NE(message.find("auto pipe"), std::string::npos) << message;
    }
  }
  // The engine-dependent combination — every permitted table smaller
  // than the effective thread count makes sample-parallel builds pure
  // atomic contention — is enforced by the driver once the engine is
  // resolved: rejected for the engines that build tables that way,
  // accepted elsewhere (a tiny cap merely skips tests conservatively).
  PcOptions contention;
  contention.num_threads = 64;
  contention.max_table_cells = 32;
  EXPECT_NO_THROW(contention.validate());  // fields are individually fine
  contention.engine = EngineKind::kSampleParallel;
  EXPECT_THROW((void)learn_skeleton(3, oracle, contention), std::invalid_argument);
  contention.engine = EngineKind::kCiParallel;
  EXPECT_NO_THROW((void)learn_skeleton(3, oracle, contention));
  // The same engines pass once the cap clears the thread count.
  PcOptions ok;
  ok.engine = EngineKind::kSampleParallel;
  ok.num_threads = 64;
  ok.max_table_cells = 64;
  EXPECT_NO_THROW((void)learn_skeleton(3, oracle, ok));
}

TEST(Skeleton, EmptyAndSingletonGraphs) {
  const Dag dag = chain_dag(1);
  DSeparationOracle oracle(dag);
  PcOptions options;
  const SkeletonResult zero = learn_skeleton(0, oracle, options);
  EXPECT_EQ(zero.graph.num_edges(), 0);
  const SkeletonResult one = learn_skeleton(1, oracle, options);
  EXPECT_EQ(one.graph.num_edges(), 0);
  EXPECT_EQ(one.total_ci_tests, 0);
}

TEST(Skeleton, DisconnectedComponentsFullyPruned) {
  Dag dag(6);
  dag.add_edge(0, 1);
  dag.add_edge(2, 3);
  dag.add_edge(4, 5);
  DSeparationOracle oracle(dag);
  PcOptions options;
  options.engine = EngineKind::kCiParallel;
  options.num_threads = 2;
  const SkeletonResult result = learn_skeleton(6, oracle, options);
  EXPECT_TRUE(result.graph == dag.skeleton());
  EXPECT_EQ(result.graph.num_edges(), 3);
}

TEST(Skeleton, NaiveAndFastAgreeOnOracle) {
  const Dag dag = chain_dag(7);
  DSeparationOracle oracle(dag);
  PcOptions naive;
  naive.engine = EngineKind::kNaiveSequential;
  PcOptions fast;
  fast.engine = EngineKind::kFastSequential;
  const SkeletonResult a = learn_skeleton(7, oracle, naive);
  const SkeletonResult b = learn_skeleton(7, oracle, fast);
  EXPECT_TRUE(a.graph == b.graph);
}

TEST(Skeleton, GroupingReducesCiTestsOnOracle) {
  // The grouping optimization must not *increase* CI tests; on graphs
  // where direction-1 separation succeeds it strictly reduces them.
  const Dag dag = chain_dag(8);
  DSeparationOracle oracle(dag);
  PcOptions grouped;
  grouped.engine = EngineKind::kFastSequential;
  PcOptions ungrouped = grouped;
  ungrouped.group_endpoints = false;
  const SkeletonResult with_grouping = learn_skeleton(8, oracle, grouped);
  const SkeletonResult without_grouping = learn_skeleton(8, oracle, ungrouped);
  EXPECT_TRUE(with_grouping.graph == without_grouping.graph);
  EXPECT_LE(with_grouping.total_ci_tests, without_grouping.total_ci_tests);
}

TEST(Skeleton, DepthZeroWordBoundariesMatchTheSequentialReference) {
  // Depth 0 returns one removal bit per pair, 64 pairs to a word. These n
  // put the pair count n(n-1)/2 on each side of a word boundary: 1 pair,
  // one word and two pairs (66), one pair short of a whole word (703 and
  // 4,095), exactly 127 words (8,128), one pair past a whole word (8,001
  // and 8,385). Every registry engine, the process engine at 2 and 3
  // ranks, must learn depth 0 exactly as fastbns-seq does, and a pair
  // must have the empty sepset exactly when the graph lacks it.
  for (const VarId n : {2, 12, 38, 91, 127, 128, 130}) {
    RandomNetworkConfig config;
    config.num_nodes = n;
    config.num_edges = 3 * n / 4;
    config.max_parents = 2;
    config.seed = static_cast<std::uint64_t>(n);
    const BayesianNetwork network = generate_random_network(config);
    const DSeparationOracle oracle(network.dag());
    PcOptions reference_options;
    reference_options.engine = EngineKind::kFastSequential;
    reference_options.max_depth = 0;
    const SkeletonResult reference =
        learn_skeleton(n, oracle, reference_options);
    const std::int64_t pairs = std::int64_t{n} * (n - 1) / 2;
    ASSERT_EQ(reference.total_ci_tests, pairs) << "n=" << n;
    // Removed and kept pairs both occur, so words hold both bit values.
    if (n > 2) {
      ASSERT_GT(reference.graph.num_edges(), 0) << "n=" << n;
      ASSERT_LT(reference.graph.num_edges(), pairs) << "n=" << n;
    }

    for (const std::string& name : list_engines()) {
      const EngineKind kind = engine_from_string(name);
      for (const std::int32_t ranks :
           kind == EngineKind::kProcess ? std::vector<std::int32_t>{2, 3}
                                        : std::vector<std::int32_t>{0}) {
        PcOptions options;
        options.engine = kind;
        options.num_threads = 2;
        options.rank_count = ranks;
        options.max_depth = 0;
        const SkeletonResult result = learn_skeleton(n, oracle, options);
        const std::string label =
            name + " ranks=" + std::to_string(ranks) + " n=" + std::to_string(n);
        EXPECT_TRUE(result.graph == reference.graph) << label;
        // The naive baseline tests (hi, lo) too when (lo, hi) is dependent.
        EXPECT_EQ(result.total_ci_tests,
                  kind == EngineKind::kNaiveSequential
                      ? pairs + result.graph.num_edges()
                      : reference.total_ci_tests)
            << label;
        for (VarId u = 0; u < n; ++u) {
          for (VarId v = u + 1; v < n; ++v) {
            const std::vector<VarId>* sepset = result.sepsets.find(u, v);
            ASSERT_EQ(sepset == nullptr, result.graph.has_edge(u, v))
                << label << ": " << u << "," << v;
            if (sepset != nullptr) {
              EXPECT_TRUE(sepset->empty()) << label << ": " << u << "," << v;
            }
            EXPECT_EQ(sepset == nullptr,
                      reference.sepsets.find(u, v) == nullptr)
                << label << ": " << u << "," << v;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fastbns
