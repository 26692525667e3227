// The dynamic work pool (Section IV-B).
//
// A mutex-guarded LIFO stack of work indices plus an outstanding-work
// counter. Threads pop a few edges, run the next gs CI tests of each while
// holding exclusive ownership of its EdgeWork record (so the record needs
// no atomics), then mark finished edges complete and push the rest back
// with advanced progress cursors. Pool operations are amortized over gs
// contingency-table builds, which is what keeps the synchronization cost
// negligible. Pops return immediately; callers spin-yield on
// all_complete, the paper's scheme.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace fastbns {

class WorkPool {
 public:
  /// `initial` holds the work indices initially available (pushed so the
  /// lowest index is popped first); `outstanding` is the number of works
  /// that will eventually be marked complete.
  WorkPool(std::vector<std::int64_t> initial, std::int64_t outstanding);

  /// Pops up to `max_items` indices under one lock into `out` (cleared
  /// first). Amortizes synchronization the same way the paper's
  /// "pop t edges at a time" does. Returns the number popped; 0 when the
  /// stack is momentarily empty (the caller must re-check all_complete()
  /// before exiting — another thread may push its edges back).
  std::size_t try_pop_batch(std::size_t max_items,
                            std::vector<std::int64_t>& out);

  /// Returns unfinished edges to the pool under one lock; the last index
  /// pushed pops first.
  void push_batch(const std::vector<std::int64_t>& indices);

  /// Declares one work finished (removed or out of CI tests).
  void mark_complete() noexcept;

  [[nodiscard]] bool all_complete() const noexcept;

 private:
  std::mutex mutex_;
  std::vector<std::int64_t> stack_;
  std::atomic<std::int64_t> outstanding_;
};

}  // namespace fastbns
