// Edge-level parallelism (Section IV-A): a static partition of the
// depth's edges across threads over the optimized kernel. The load
// imbalance this exhibits is the phenomenon the CI-level engine fixes.
#include "common/omp_utils.hpp"
#include "engine/engine_common.hpp"
#include "engine/engines.hpp"
#include "engine/skeleton_engine.hpp"

namespace fastbns {
namespace {

class EdgeParallelEngine final : public ClonePoolEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "edge-parallel";
  }

  std::int64_t run_depth_zero(VarId num_nodes, const CiTest& prototype,
                              const PcOptions& options,
                              std::span<std::uint64_t> removed) override {
    return run_depth_zero_static(
        num_nodes, {.grouped = options.group_endpoints},
        tests_.acquire(prototype, static_cast<std::size_t>(hardware_threads())),
        removed);
  }

  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& /*options*/) override {
    const int max_threads = hardware_threads();
    std::vector<std::unique_ptr<CiTest>>& clones =
        tests_.acquire(prototype, static_cast<std::size_t>(max_threads));

    std::int64_t tests = 0;
#pragma omp parallel reduction(+ : tests)
    {
      CiTest& test = *clones[current_thread()];
      std::vector<VarId> z;
      // schedule(static) deliberately mirrors the paper's |Ed|/t block
      // partition — the load imbalance it exhibits is the phenomenon the
      // CI-level engine fixes.
#pragma omp for schedule(static)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(works.size());
           ++i) {
        tests += run_edge_tests(works[i], depth, /*group=*/1, test, z);
      }
    }
    return tests;
  }
};

}  // namespace

std::unique_ptr<SkeletonEngine> make_edge_parallel_engine() {
  return std::make_unique<EdgeParallelEngine>();
}

}  // namespace fastbns
