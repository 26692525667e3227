// The bnlearn-like sequential baseline: both edge directions are separate
// work units, conditioning sets are materialized up front, and endpoint
// codes are recomputed on every test (no group protocol) — the strategy
// profile every Fast-BNS optimization is measured against.
#include "engine/engine_common.hpp"
#include "engine/engines.hpp"
#include "engine/skeleton_engine.hpp"

namespace fastbns {
namespace {

class NaiveSequentialEngine final : public ClonePoolEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "naive-seq";
  }

  [[nodiscard]] bool supports_endpoint_grouping() const noexcept override {
    return false;
  }

  std::int64_t run_depth_zero(VarId num_nodes, const CiTest& prototype,
                              const PcOptions& /*options*/,
                              std::span<std::uint64_t> removed) override {
    return run_depth_zero_words(num_nodes, 0, removed.size(),
                                {.grouped = false,
                                 .reverse_only_if_dependent = true,
                                 .group_protocol = false},
                                *tests_.acquire(prototype, 1).front(),
                                removed);
  }

  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& /*options*/) override {
    CiTest& test = *tests_.acquire(prototype, 1).front();
    return run_sequential_depth(works, depth, test, /*grouped=*/false,
                                /*materialized=*/true,
                                /*use_group_protocol=*/false);
  }
};

}  // namespace

std::unique_ptr<SkeletonEngine> make_naive_sequential_engine() {
  return std::make_unique<NaiveSequentialEngine>();
}

}  // namespace fastbns
