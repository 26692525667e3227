// The Fast-BNS CI-level parallel engine (Section IV-B).
//
// Depth 0 uses plain edge-level parallelism: each pair needs exactly one
// marginal test, so the workload is known and balanced up front, and a
// static partition of the pair bitmap's words needs no work list. For
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

class CiParallelEngine final : public ClonePoolEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fastbns-par(ci-level)";
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
                         const PcOptions& options) override {
    const int max_threads = hardware_threads();
    std::vector<std::unique_ptr<CiTest>>& clones =
        tests_.acquire(prototype, static_cast<std::size_t>(max_threads));

    // A depth-0 list (the run_depth_zero default of a wrapping engine)
    // runs like any other: one test per work.
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
