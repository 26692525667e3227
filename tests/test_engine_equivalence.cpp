// The library's central property: every registered skeleton engine — at
// any thread count and any group size — produces the identical skeleton and
// separating sets, because PC-stable is order-independent and the engines
// share one canonical test order. This is what lets the paper claim
// "the accuracy of Fast-BNS is exactly the same as the other PC-stable
// implementations" and skip accuracy results entirely.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "dataset/dataset.hpp"
#include "engine/engine_registry.hpp"
#include "engine/skeleton_engine.hpp"
#include "network/forward_sampler.hpp"
#include "network/linear_gaussian.hpp"
#include "network/random_network.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"
#include "pc/skeleton.hpp"
#include "stats/discrete_ci_test.hpp"
#include "stats/oracle_test.hpp"

namespace fastbns {
namespace {

struct Fixture {
  BayesianNetwork network;
  DiscreteDataset data;
};

const Fixture& fixture() {
  static const Fixture instance = [] {
    RandomNetworkConfig config;
    config.num_nodes = 24;
    config.num_edges = 32;
    config.seed = 77;
    BayesianNetwork network = generate_random_network(config);
    Rng rng(78);
    DiscreteDataset data =
        forward_sample(network, 1200, rng, DataLayout::kBoth);
    return Fixture{std::move(network), std::move(data)};
  }();
  return instance;
}

/// The test options learn_structure would build for `kind`: sample-parallel
/// table builds when the engine asks for them.
CiTestOptions test_options_for(EngineKind kind) {
  CiTestOptions options;
  options.sample_parallel =
      EngineRegistry::instance().create(kind)->wants_sample_parallel_test();
  return options;
}

SkeletonResult reference_result() {
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  const DiscreteCiTest test(fixture().data, {});
  return learn_skeleton(fixture().data.num_vars(), test, options);
}

/// (canonical engine name, threads, group size). Naming engines by their
/// registry string (resolved back through engine_from_string inside the
/// test) keeps the suite honest about the round-trip and automatically
/// enrolls every future registered backend.
using EngineThreadsGs = std::tuple<std::string, int, std::int32_t>;

/// Registry-driven parameter grid: every registered engine runs at a
/// small thread/gs grid; the CI-level engine additionally sweeps the
/// group sizes the paper's Figure 4 studies across thread counts, where
/// the threads' claims from the work cursor race but the result may not.
/// threads = 0 keeps the OpenMP runtime default, which is what lets the CI
/// workflow's OMP_NUM_THREADS=1/2/nproc sweep actually vary the
/// concurrency these configurations run at — every pinned thread count
/// overrides the environment.
std::vector<EngineThreadsGs> registry_param_grid() {
  std::vector<EngineThreadsGs> params;
  for (const std::string& name : list_engines()) {
    params.emplace_back(name, 1, 1);
    params.emplace_back(name, 2, 1);
    params.emplace_back(name, 4, 4);
  }
  for (const auto& [threads, gs] :
       {std::pair<int, std::int32_t>{2, 4}, {4, 6}, {3, 8}, {2, 16}, {2, 8},
        {3, 4}, {4, 16}, {0, 1}, {0, 8}}) {
    params.emplace_back("fastbns-par(ci-level)", threads, gs);
  }
  return params;
}

class EngineEquivalence : public ::testing::TestWithParam<EngineThreadsGs> {};

TEST_P(EngineEquivalence, SkeletonAndSepsetsMatchReference) {
  const auto [name, threads, gs] = GetParam();
  PcOptions options;
  options.engine = engine_from_string(name);
  options.num_threads = threads;
  options.group_size = gs;

  const DiscreteCiTest test(fixture().data, test_options_for(options.engine));
  const SkeletonResult result =
      learn_skeleton(fixture().data.num_vars(), test, options);

  static const SkeletonResult reference = reference_result();
  EXPECT_TRUE(result.graph == reference.graph)
      << "engine=" << name << " t=" << threads << " gs=" << gs;

  // Sepsets must match pair by pair.
  const VarId n = fixture().data.num_vars();
  for (VarId u = 0; u < n; ++u) {
    for (VarId v = u + 1; v < n; ++v) {
      const auto* expected = reference.sepsets.find(u, v);
      const auto* actual = result.sepsets.find(u, v);
      ASSERT_EQ(expected == nullptr, actual == nullptr) << u << "," << v;
      if (expected != nullptr) {
        EXPECT_EQ(*expected, *actual) << u << "," << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesThreadsGroups, EngineEquivalence,
    ::testing::ValuesIn(registry_param_grid()),
    [](const ::testing::TestParamInfo<EngineThreadsGs>& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_t" + std::to_string(std::get<1>(param_info.param)) + "_gs" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(EngineEquivalence, CpdagIdenticalAcrossRegisteredEnginesOnSampledData) {
  // End-to-end: every registered engine yields the byte-identical CPDAG
  // (skeleton + orientations) on the sampled fixture.
  PcOptions reference_options;
  reference_options.engine = engine_from_string("fastbns-seq");
  const DiscreteCiTest reference_test(fixture().data, {});
  const PcStableResult reference =
      pc_stable(fixture().data.num_vars(), reference_test, reference_options);

  for (const std::string& name : list_engines()) {
    PcOptions options;
    options.engine = engine_from_string(name);
    options.num_threads = 2;
    options.group_size = 4;
    const DiscreteCiTest test(fixture().data,
                              test_options_for(options.engine));
    const PcStableResult result =
        pc_stable(fixture().data.num_vars(), test, options);
    EXPECT_TRUE(result.cpdag == reference.cpdag) << name;
  }
}

TEST(EngineEquivalence, CiTestCountDeterministicPerGroupSize) {
  // For a fixed gs the executed CI-test count must not depend on thread
  // count (the redundancy is a function of the canonical order only).
  for (const std::int32_t gs : {1, 4, 8}) {
    std::int64_t reference_count = -1;
    for (const int threads : {1, 2, 4}) {
      PcOptions options;
      options.engine = EngineKind::kCiParallel;
      options.num_threads = threads;
      options.group_size = gs;
      const DiscreteCiTest test(fixture().data, {});
      const SkeletonResult result =
          learn_skeleton(fixture().data.num_vars(), test, options);
      if (reference_count < 0) {
        reference_count = result.total_ci_tests;
      } else {
        EXPECT_EQ(result.total_ci_tests, reference_count)
            << "gs=" << gs << " t=" << threads;
      }
    }
  }
}

TEST(EngineEquivalence, GroupSizeOneMatchesSequentialTestCount) {
  PcOptions sequential;
  sequential.engine = EngineKind::kFastSequential;
  PcOptions pooled;
  pooled.engine = EngineKind::kCiParallel;
  pooled.group_size = 1;
  pooled.num_threads = 2;
  const DiscreteCiTest test(fixture().data, {});
  const SkeletonResult a =
      learn_skeleton(fixture().data.num_vars(), test, sequential);
  const SkeletonResult b =
      learn_skeleton(fixture().data.num_vars(), test, pooled);
  // gs=1 introduces no redundant tests, so counts match exactly.
  EXPECT_EQ(a.total_ci_tests, b.total_ci_tests);
}

TEST(EngineEquivalence, LargerGroupSizeNeverReducesTests) {
  std::int64_t previous = 0;
  for (const std::int32_t gs : {1, 2, 4, 8, 16}) {
    PcOptions options;
    options.engine = EngineKind::kCiParallel;
    options.group_size = gs;
    options.num_threads = 2;
    const DiscreteCiTest test(fixture().data, {});
    const SkeletonResult result =
        learn_skeleton(fixture().data.num_vars(), test, options);
    if (gs > 1) {
      EXPECT_GE(result.total_ci_tests, previous) << "gs=" << gs;
    }
    previous = result.total_ci_tests;
  }
}

TEST(EngineEquivalence, GaussianSkeletonIdenticalAcrossRegisteredEngines) {
  // The statistic-agnostic counterpart of the central property: swap the
  // G^2 test for Fisher-z over a linear-Gaussian SEM sample and every
  // registered engine — the process engine at one and two ranks — must
  // still produce the byte-identical skeleton, sepsets, and CPDAG. This
  // goes through learn_structure's Dataset path, so the factory, the
  // correlation matrix the ranks inherit at fork, and per-thread Fisher-z
  // clones are all on the line, not just the engines.
  static const Dataset data = [] {
    RandomNetworkConfig config;
    config.num_nodes = 18;
    config.num_edges = 26;
    config.seed = 301;
    const BayesianNetwork network = generate_random_network(config);
    Rng rng(302);
    const LinearGaussianSem sem =
        random_linear_gaussian_sem(network.dag(), rng);
    return Dataset(sample_linear_gaussian(sem, 1500, rng));
  }();

  PcOptions reference_options;
  reference_options.engine = engine_from_string("fastbns-seq");
  reference_options.ci_test = "gaussian";
  const PcStableResult reference = learn_structure(data, reference_options);
  EXPECT_GT(reference.skeleton.graph.num_edges(), 0);

  for (const std::string& name : list_engines()) {
    const bool is_process = name == "process(rank-partition)";
    for (const std::int32_t ranks : is_process
                                        ? std::vector<std::int32_t>{1, 2}
                                        : std::vector<std::int32_t>{0}) {
      PcOptions options;
      options.engine = engine_from_string(name);
      options.num_threads = 2;
      options.group_size = 4;
      options.ci_test = "gaussian";
      options.rank_count = ranks;
      const PcStableResult result = learn_structure(data, options);
      const std::string label = name + " ranks=" + std::to_string(ranks);
      EXPECT_TRUE(result.skeleton.graph == reference.skeleton.graph) << label;
      EXPECT_TRUE(result.cpdag == reference.cpdag) << label;
      const VarId n = data.num_vars();
      for (VarId u = 0; u < n; ++u) {
        for (VarId v = u + 1; v < n; ++v) {
          const auto* expected = reference.skeleton.sepsets.find(u, v);
          const auto* actual = result.skeleton.sepsets.find(u, v);
          ASSERT_EQ(expected == nullptr, actual == nullptr)
              << label << ": " << u << "," << v;
          if (expected != nullptr) {
            EXPECT_EQ(*expected, *actual) << label << ": " << u << "," << v;
          }
        }
      }
    }
  }
}

TEST(EngineEquivalence, GaussianAutoResolutionMatchesExplicitName) {
  // "auto" on continuous data must be exactly the Fisher-z run.
  static const Dataset data = [] {
    RandomNetworkConfig config;
    config.num_nodes = 12;
    config.num_edges = 16;
    config.seed = 311;
    const BayesianNetwork network = generate_random_network(config);
    Rng rng(312);
    const LinearGaussianSem sem =
        random_linear_gaussian_sem(network.dag(), rng);
    return Dataset(sample_linear_gaussian(sem, 900, rng));
  }();
  PcOptions explicit_options;
  explicit_options.ci_test = "gaussian";
  PcOptions auto_options;
  auto_options.ci_test = "auto";
  const PcStableResult a = learn_structure(data, explicit_options);
  const PcStableResult b = learn_structure(data, auto_options);
  EXPECT_TRUE(a.skeleton.graph == b.skeleton.graph);
  EXPECT_TRUE(a.cpdag == b.cpdag);
  EXPECT_EQ(a.skeleton.total_ci_tests, b.skeleton.total_ci_tests);
}

TEST(EngineEquivalence, OracleRunsAgreeAcrossRegisteredEngines) {
  const BayesianNetwork alarm = alarm_network();
  DSeparationOracle oracle(alarm.dag());
  PcOptions reference_options;
  reference_options.engine = engine_from_string("fastbns-seq");
  const PcStableResult reference =
      pc_stable(alarm.num_nodes(), oracle, reference_options);
  EXPECT_TRUE(reference.skeleton.graph == alarm.dag().skeleton());

  for (const std::string& name : list_engines()) {
    PcOptions options;
    options.engine = engine_from_string(name);
    options.num_threads = 2;
    options.group_size = 4;
    const PcStableResult result = pc_stable(alarm.num_nodes(), oracle, options);
    EXPECT_TRUE(result.skeleton.graph == reference.skeleton.graph) << name;
    EXPECT_TRUE(result.cpdag == reference.cpdag) << name;
    const VarId n = alarm.num_nodes();
    for (VarId u = 0; u < n; ++u) {
      for (VarId v = u + 1; v < n; ++v) {
        const auto* expected = reference.skeleton.sepsets.find(u, v);
        const auto* actual = result.skeleton.sepsets.find(u, v);
        ASSERT_EQ(expected == nullptr, actual == nullptr)
            << name << ": " << u << "," << v;
        if (expected != nullptr) {
          EXPECT_EQ(*expected, *actual) << name << ": " << u << "," << v;
        }
      }
    }
  }
}

/// Forwards run_depth and the trait getters to a registry engine, as
/// perfbench's TracingEngine does, and nothing else: depth 0 takes the
/// seam's run_depth_zero default, which builds the depth-0 list and runs
/// it through the engine's run_depth.
class ForwardingEngine final : public SkeletonEngine {
 public:
  explicit ForwardingEngine(SkeletonEngine& inner) : inner_(inner) {}

  void prepare_run() override { inner_.prepare_run(); }
  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& options) override {
    return inner_.run_depth(works, depth, prototype, options);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] bool supports_endpoint_grouping() const noexcept override {
    return inner_.supports_endpoint_grouping();
  }
  [[nodiscard]] bool wants_sample_parallel_test() const noexcept override {
    return inner_.wants_sample_parallel_test();
  }
  [[nodiscard]] bool uses_sample_parallel_builds() const noexcept override {
    return inner_.uses_sample_parallel_builds();
  }

 private:
  SkeletonEngine& inner_;
};

TEST(EngineEquivalence, DepthZeroOverridesMatchTheListBuildingDefault) {
  // Every builtin engine runs depth 0 over the pair bitmap's words; the
  // default it overrides runs the depth-0 work list through run_depth.
  // Both must call the test alike, grouped and ungrouped, so the learns
  // agree in adjacency, sepsets, every depth's stats and the test count.
  const VarId n = fixture().data.num_vars();
  for (const std::string& name : list_engines()) {
    for (const int threads : {1, 2}) {
      for (const bool grouped : {true, false}) {
        PcOptions options;
        options.engine = engine_from_string(name);
        options.num_threads = threads;
        options.group_endpoints = grouped;
        const std::string label = name + " t=" + std::to_string(threads) +
                                  " grouped=" + std::to_string(grouped);
        const DiscreteCiTest test(fixture().data,
                                  test_options_for(options.engine));
        const SkeletonResult direct = learn_skeleton(n, test, options);
        const std::unique_ptr<SkeletonEngine> inner =
            EngineRegistry::instance().create(options);
        ForwardingEngine forwarding(*inner);
        const SkeletonResult wrapped =
            learn_skeleton(n, test, options, forwarding);

        EXPECT_TRUE(direct.graph == wrapped.graph) << label;
        EXPECT_EQ(direct.total_ci_tests, wrapped.total_ci_tests) << label;
        ASSERT_EQ(direct.depth_stats.size(), wrapped.depth_stats.size())
            << label;
        for (std::size_t d = 0; d < direct.depth_stats.size(); ++d) {
          const DepthStats& a = direct.depth_stats[d];
          const DepthStats& b = wrapped.depth_stats[d];
          EXPECT_EQ(a.depth, b.depth) << label << " d=" << d;
          EXPECT_EQ(a.edges_at_start, b.edges_at_start) << label << " d=" << d;
          EXPECT_EQ(a.edges_removed, b.edges_removed) << label << " d=" << d;
          EXPECT_EQ(a.ci_tests, b.ci_tests) << label << " d=" << d;
        }
        for (VarId u = 0; u < n; ++u) {
          for (VarId v = u + 1; v < n; ++v) {
            const auto* expected = wrapped.sepsets.find(u, v);
            const auto* actual = direct.sepsets.find(u, v);
            ASSERT_EQ(expected == nullptr, actual == nullptr)
                << label << ": " << u << "," << v;
            if (expected != nullptr) {
              EXPECT_EQ(*expected, *actual) << label << ": " << u << "," << v;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fastbns
