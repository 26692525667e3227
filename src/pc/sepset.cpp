#include "pc/sepset.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace fastbns {
namespace {

/// Pairs per bit page (8 KiB).
constexpr std::uint64_t kPagePairs = std::uint64_t{1} << 16;

/// Triangular index of the unordered pair {x, y}: hi(hi - 1)/2 + lo. The
/// product leaves 32 bits once hi passes 65,536.
std::uint64_t pair_index(VarId x, VarId y) noexcept {
  assert(x != y && x >= 0 && y >= 0);
  const auto lo = static_cast<std::uint64_t>(std::min(x, y));
  const auto hi = static_cast<std::uint64_t>(std::max(x, y));
  return hi * (hi - 1) / 2 + lo;
}

}  // namespace

std::uint64_t SepsetStore::key(VarId x, VarId y) noexcept {
  const auto lo = static_cast<std::uint64_t>(std::min(x, y));
  const auto hi = static_cast<std::uint64_t>(std::max(x, y));
  return (hi << 32) | lo;
}

bool SepsetStore::has_empty(std::uint64_t pair) const noexcept {
  const std::uint64_t page = pair / kPagePairs;
  if (page >= empty_pages_.size() || empty_pages_[page].empty()) return false;
  const std::uint64_t bit = pair % kPagePairs;
  return (empty_pages_[page][bit / 64] >> (bit % 64) & 1) != 0;
}

void SepsetStore::set(VarId x, VarId y, std::vector<VarId> sepset) {
  const std::uint64_t pair = pair_index(x, y);
  if (has_empty(pair)) return;
  if (!sepset.empty()) {
    sets_.try_emplace(key(x, y), std::move(sepset));
    return;
  }
  if (sets_.contains(key(x, y))) return;
  const std::uint64_t page = pair / kPagePairs;
  if (page >= empty_pages_.size()) empty_pages_.resize(page + 1);
  if (empty_pages_[page].empty()) empty_pages_[page].resize(kPagePairs / 64);
  const std::uint64_t bit = pair % kPagePairs;
  empty_pages_[page][bit / 64] |= std::uint64_t{1} << (bit % 64);
  ++empty_count_;
}

const std::vector<VarId>* SepsetStore::find(VarId x, VarId y) const {
  static const std::vector<VarId> kEmpty;
  if (has_empty(pair_index(x, y))) return &kEmpty;
  const auto it = sets_.find(key(x, y));
  return it == sets_.end() ? nullptr : &it->second;
}

bool SepsetStore::separates_with(VarId x, VarId y, VarId v) const {
  const std::vector<VarId>* sepset = find(x, y);
  if (sepset == nullptr) return false;
  return std::find(sepset->begin(), sepset->end(), v) != sepset->end();
}

}  // namespace fastbns
