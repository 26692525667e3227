// The EngineRegistry contract: canonical names round-trip through
// engine_from_string / to_string, aliases resolve, unknown names fail
// loudly, every kind builds the one engine that agrees on its own name,
// and a backend outside the table runs through learn_skeleton's engine
// overload.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "engine/engine_registry.hpp"
#include "engine/skeleton_engine.hpp"
#include "graph/dag.hpp"
#include "pc/skeleton.hpp"
#include "stats/oracle_test.hpp"

namespace fastbns {
namespace {

TEST(EngineRegistry, ListsTheBuiltinEnginesSorted) {
  const std::vector<std::string> names = list_engines();
  ASSERT_GE(names.size(), 6u);
  // list_engines() is the stable, sorted order CLI help enumerates.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"naive-seq", "fastbns-seq", "edge-parallel", "sample-parallel",
        "fastbns-par(ci-level)", "process(rank-partition)"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // names() keeps table order: the paper's five engines first.
  const std::vector<std::string> table_order =
      EngineRegistry::instance().names();
  ASSERT_EQ(table_order.size(), 6u);
  EXPECT_EQ(table_order[0], "naive-seq");
  EXPECT_EQ(table_order[4], "fastbns-par(ci-level)");
  EXPECT_EQ(table_order[5], "process(rank-partition)");
}

TEST(EngineRegistry, CanonicalNamesRoundTrip) {
  for (const std::string& name : list_engines()) {
    EXPECT_EQ(to_string(engine_from_string(name)), name) << name;
  }
}

TEST(EngineRegistry, KindsRoundTripThroughNames) {
  for (const EngineKind kind :
       {EngineKind::kNaiveSequential, EngineKind::kFastSequential,
        EngineKind::kEdgeParallel, EngineKind::kSampleParallel,
        EngineKind::kCiParallel, EngineKind::kProcess}) {
    EXPECT_EQ(engine_from_string(to_string(kind)), kind);
  }
}

TEST(EngineRegistry, AliasesResolve) {
  EXPECT_EQ(engine_from_string("naive"), EngineKind::kNaiveSequential);
  EXPECT_EQ(engine_from_string("seq"), EngineKind::kFastSequential);
  EXPECT_EQ(engine_from_string("edge"), EngineKind::kEdgeParallel);
  EXPECT_EQ(engine_from_string("sample"), EngineKind::kSampleParallel);
  EXPECT_EQ(engine_from_string("ci"), EngineKind::kCiParallel);
  EXPECT_EQ(engine_from_string("fastbns-par"), EngineKind::kCiParallel);
  EXPECT_EQ(engine_from_string("auto"), EngineKind::kCiParallel);
  EXPECT_EQ(engine_from_string("process"), EngineKind::kProcess);
  EXPECT_EQ(engine_from_string("mpp"), EngineKind::kProcess);
}

TEST(EngineRegistry, UnknownNameThrowsListingKnownEngines) {
  try {
    (void)engine_from_string("warp-drive");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("warp-drive"), std::string::npos);
    EXPECT_NE(message.find("fastbns-par(ci-level)"), std::string::npos);
  }
  EXPECT_THROW((void)EngineRegistry::instance().create("warp-drive"),
               std::invalid_argument);
}

TEST(EngineRegistry, FactoriesBuildEnginesThatKnowTheirNames) {
  const EngineRegistry& registry = EngineRegistry::instance();
  for (const std::string& name : list_engines()) {
    const std::unique_ptr<SkeletonEngine> engine = registry.create(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
  }
}

TEST(EngineRegistry, EnginesDeclareTheirTraits) {
  // Only the naive baseline forbids endpoint grouping; only the
  // sample-parallel engine wants sample-parallel tests.
  const EngineRegistry& registry = EngineRegistry::instance();
  for (const std::string& name : list_engines()) {
    const std::unique_ptr<SkeletonEngine> engine = registry.create(name);
    EXPECT_EQ(engine->supports_endpoint_grouping(), name != "naive-seq")
        << name;
    EXPECT_EQ(engine->wants_sample_parallel_test(), name == "sample-parallel")
        << name;
  }
}

TEST(EngineRegistry, EachKindBuildsItsOneEngine) {
  const EngineRegistry& registry = EngineRegistry::instance();
  for (const EngineKind kind :
       {EngineKind::kNaiveSequential, EngineKind::kFastSequential,
        EngineKind::kEdgeParallel, EngineKind::kSampleParallel,
        EngineKind::kCiParallel, EngineKind::kProcess}) {
    ASSERT_NE(registry.find(kind), nullptr);
    EXPECT_EQ(registry.find(kind)->kind, kind);
    EXPECT_EQ(registry.create(kind)->name(), to_string(kind));
    PcOptions options;
    options.engine = kind;
    EXPECT_EQ(registry.create(options)->name(), to_string(kind));
  }
}

// A backend outside the table: it accepts the first test of every work,
// so a run that used it removes every edge at depth 0.
class RemoveAllEngine final : public SkeletonEngine {
 public:
  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t,
                         const CiTest&, const PcOptions&) override {
    ++depths_run;
    for (EdgeWork& work : works) work.accepted = 0;
    return static_cast<std::int64_t>(works.size());
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "remove-all";
  }
  int depths_run = 0;
};

TEST(EngineRegistry, OutOfTableBackendsRunThroughTheEngineOverload) {
  Dag dag(4);
  for (VarId v = 0; v + 1 < 4; ++v) dag.add_edge(v, v + 1);
  const DSeparationOracle oracle(dag);
  RemoveAllEngine engine;
  // options.engine names a builtin; the caller's engine runs instead.
  const PcOptions options;
  const SkeletonResult result = learn_skeleton(4, oracle, options, engine);
  EXPECT_EQ(engine.depths_run, 1);
  EXPECT_EQ(result.graph.num_edges(), 0);
  EXPECT_EQ(result.total_ci_tests, 6);
  // The table never learns the backend's name.
  EXPECT_EQ(EngineRegistry::instance().find("remove-all"), nullptr);
  EXPECT_THROW((void)engine_from_string("remove-all"), std::invalid_argument);
}

}  // namespace
}  // namespace fastbns
