// The Fast-BNS CI-level parallel engine (Section IV-B).
//
// Depth 0 uses plain edge-level parallelism: each edge needs exactly one
// marginal test, so the workload is known and balanced up front. For
// depth >= 1, each thread claims the next whole work from one atomic
// cursor and runs its tests in rank order, gs at a time, to the end of
// the group in which the first test accepts. A thread that finishes a
// work immediately claims another, so no thread idles while works
// remain — the paper's load-balancing claim — and one relaxed fetch_add
// is the only synchronization per work.
#include <atomic>

#include "common/omp_utils.hpp"
#include "engine/engine_common.hpp"
#include "engine/engines.hpp"
#include "engine/skeleton_engine.hpp"

namespace fastbns {
namespace {

/// Depth 0: a static edge-level partition is optimal (the paper's
/// prescription for depth zero). Returns the number of CI tests executed.
std::int64_t run_depth_zero_edge_parallel(
    std::vector<EdgeWork>& works,
    std::vector<std::unique_ptr<CiTest>>& clones) {
  std::int64_t tests = 0;
#pragma omp parallel reduction(+ : tests)
  {
    CiTest& test = *clones[current_thread()];
    std::vector<VarId> z;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(works.size());
         ++i) {
      tests += run_edge_tests(works[i], /*depth=*/0, /*group=*/1, test, z);
    }
  }
  return tests;
}

class CiParallelEngine final : public ClonePoolEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fastbns-par(ci-level)";
  }

  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& options) override {
    const int max_threads = hardware_threads();
    std::vector<std::unique_ptr<CiTest>>& clones =
        tests_.acquire(prototype, static_cast<std::size_t>(max_threads));

    if (depth == 0) {
      return run_depth_zero_edge_parallel(works, clones);
    }

    const auto gs = static_cast<std::uint64_t>(options.group_size);
    std::atomic<std::size_t> cursor{0};
    std::int64_t tests = 0;
    // The claimer owns its work exclusively, and the region's closing
    // barrier publishes every work's outcome to the driver.
#pragma omp parallel reduction(+ : tests)
    {
      CiTest& test = *clones[current_thread()];
      std::vector<VarId> z;
      for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < works.size();
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        tests += run_edge_tests(works[i], depth, gs, test, z);
      }
    }
    return tests;
  }
};

}  // namespace

std::unique_ptr<SkeletonEngine> make_ci_parallel_engine() {
  return std::make_unique<CiParallelEngine>();
}

}  // namespace fastbns
