// The Fast-BNS CI-level parallel engine (Section IV-B).
//
// Depth 0 uses plain edge-level parallelism: each edge needs exactly one
// marginal test, so the workload is known and balanced up front. For
// depth >= 1, the dynamic work pool schedules groups of gs CI tests; a
// thread that finishes an edge's group immediately pops another edge, so
// no thread idles while tests remain — the paper's load-balancing claim.
#include <thread>

#include "common/omp_utils.hpp"
#include "engine/engine_common.hpp"
#include "engine/engines.hpp"
#include "engine/skeleton_engine.hpp"
#include "pc/work_pool.hpp"

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
      tests += run_edge_tests(works[i], /*depth=*/0, 1, test,
                              /*early_stop=*/false, z);
    }
  }
  return tests;
}

/// Indices of the works with pending tests — the pool's initial stack;
/// its size is also the pool's outstanding count (works without tests
/// never enter the pool).
std::vector<std::int64_t> pending_work_indices(
    const std::vector<EdgeWork>& works) {
  std::vector<std::int64_t> indices;
  indices.reserve(works.size());
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(works.size()); ++i) {
    if (works[i].total_tests() > 0) indices.push_back(i);
  }
  return indices;
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

    std::vector<std::int64_t> initial = pending_work_indices(works);
    const auto outstanding = static_cast<std::int64_t>(initial.size());
    WorkPool pool(std::move(initial), outstanding);

    const auto gs = static_cast<std::uint64_t>(options.group_size);
    // Edges claimed per pool interaction: amortizes the lock across
    // several groups (the paper pops t edges per round). Small enough
    // that the tail of a depth still load-balances.
    constexpr std::size_t kClaimBatch = 8;

    std::int64_t tests = 0;
#pragma omp parallel reduction(+ : tests)
    {
      CiTest& test = *clones[current_thread()];
      std::vector<std::int64_t> claimed;
      std::vector<std::int64_t> keep;
      std::vector<VarId> z;
      while (!pool.all_complete()) {
        if (pool.try_pop_batch(kClaimBatch, claimed) == 0) {
          // Pool momentarily dry but some edges are still being processed
          // and may return; yield instead of spinning hot.
          std::this_thread::yield();
          continue;
        }
        keep.clear();
        for (const std::int64_t index : claimed) {
          EdgeWork& work = works[index];
          // The holder owns `work` exclusively: no atomics on its fields.
          tests += run_edge_tests(work, depth, gs, test,
                                  options.eager_group_stop, z);
          if (work.finished()) {
            pool.mark_complete();
          } else {
            keep.push_back(index);
          }
        }
        pool.push_batch(keep);
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
