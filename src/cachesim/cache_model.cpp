#include "cachesim/cache_model.hpp"

#include <stdexcept>

namespace fastbns {

CacheModel::CacheModel(CacheConfig config) : config_(config) {
  if (config_.line_bytes == 0 || config_.associativity == 0 ||
      config_.size_bytes < config_.line_bytes * config_.associativity) {
    throw std::invalid_argument("CacheModel: invalid geometry");
  }
  num_sets_ = config_.size_bytes / (config_.line_bytes * config_.associativity);
  if (num_sets_ == 0) num_sets_ = 1;
  ways_.assign(num_sets_ * config_.associativity, 0);
}

bool CacheModel::access(std::uint64_t address) {
  ++stats_.accesses;
  const std::uint64_t line = address / config_.line_bytes;
  const std::uint64_t tag = line + 1;  // +1: 0 marks an empty way
  const std::size_t set = static_cast<std::size_t>(line % num_sets_);
  std::uint64_t* base = ways_.data() + set * config_.associativity;

  for (std::size_t w = 0; w < config_.associativity; ++w) {
    if (base[w] == tag) {
      // Move to MRU position.
      for (std::size_t k = w; k > 0; --k) base[k] = base[k - 1];
      base[0] = tag;
      return true;
    }
  }
  // Miss: evict LRU (last way), insert at MRU.
  ++stats_.misses;
  for (std::size_t k = config_.associativity - 1; k > 0; --k) {
    base[k] = base[k - 1];
  }
  base[0] = tag;
  return false;
}

void CacheModel::reset() {
  ways_.assign(ways_.size(), 0);
  stats_ = CacheStats{};
}

MemoryHierarchy::MemoryHierarchy(CacheConfig l1, CacheConfig last_level)
    : l1_(l1), ll_(last_level) {}

void MemoryHierarchy::access(std::uint64_t address) {
  if (!l1_.access(address)) ll_.access(address);
}

void MemoryHierarchy::reset() {
  l1_.reset();
  ll_.reset();
}

}  // namespace fastbns
