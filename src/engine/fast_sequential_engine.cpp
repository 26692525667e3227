// Fast-BNS-seq: the optimized sequential kernel — endpoint grouping,
// on-the-fly conditioning sets (each the lexicographic successor of the
// last), and endpoint-code reuse through the group protocol (Section
// IV-C). The ablation toggles in PcOptions
// switch the individual optimizations back off.
#include "engine/engine_common.hpp"
#include "engine/engines.hpp"
#include "engine/skeleton_engine.hpp"

namespace fastbns {
namespace {

class FastSequentialEngine final : public ClonePoolEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fastbns-seq";
  }

  std::int64_t run_depth_zero(VarId num_nodes, const CiTest& prototype,
                              const PcOptions& options,
                              std::span<std::uint64_t> removed) override {
    return run_depth_zero_words(num_nodes, 0, removed.size(),
                                {.grouped = options.group_endpoints,
                                 .reverse_only_if_dependent = true},
                                *tests_.acquire(prototype, 1).front(),
                                removed);
  }

  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& options) override {
    CiTest& test = *tests_.acquire(prototype, 1).front();
    return run_sequential_depth(works, depth, test, options.group_endpoints,
                                /*materialized=*/!options.on_the_fly_sets,
                                /*use_group_protocol=*/true);
  }
};

}  // namespace

std::unique_ptr<SkeletonEngine> make_fast_sequential_engine() {
  return std::make_unique<FastSequentialEngine>();
}

}  // namespace fastbns
