// Sample-level parallelism (Section IV-A): the edge loop is the
// sequential optimized kernel; the parallelism lives one level down, in
// the CI test's contingency-table build (all threads fill one table with
// atomics). The engine therefore only signals that its test should be
// constructed sample-parallel — the per-depth execution matches
// fastbns-seq.
#include "engine/engine_common.hpp"
#include "engine/engines.hpp"
#include "engine/skeleton_engine.hpp"

namespace fastbns {
namespace {

class SampleParallelEngine final : public ClonePoolEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sample-parallel";
  }

  [[nodiscard]] bool wants_sample_parallel_test() const noexcept override {
    return true;
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

std::unique_ptr<SkeletonEngine> make_sample_parallel_engine() {
  return std::make_unique<SampleParallelEngine>();
}

}  // namespace fastbns
