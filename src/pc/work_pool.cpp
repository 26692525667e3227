#include "pc/work_pool.hpp"

#include <algorithm>

namespace fastbns {

WorkPool::WorkPool(std::vector<std::int64_t> initial, std::int64_t outstanding)
    : stack_(std::move(initial)), outstanding_(outstanding) {
  // LIFO stack: reverse so that lower indices pop first initially.
  std::reverse(stack_.begin(), stack_.end());
}

std::size_t WorkPool::try_pop_batch(std::size_t max_items,
                                    std::vector<std::int64_t>& out) {
  out.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = std::min(max_items, stack_.size());
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(stack_.back());
    stack_.pop_back();
  }
  return count;
}

void WorkPool::push_batch(const std::vector<std::int64_t>& indices) {
  if (indices.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  stack_.insert(stack_.end(), indices.begin(), indices.end());
}

void WorkPool::mark_complete() noexcept {
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

bool WorkPool::all_complete() const noexcept {
  return outstanding_.load(std::memory_order_acquire) <= 0;
}

}  // namespace fastbns
