#include "pc/sepset.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "pc/pair_index.hpp"

namespace fastbns {
namespace {

/// Pairs per bit page (8 KiB), a whole number of bitmap words.
constexpr std::uint64_t kPagePairs = std::uint64_t{1} << 16;
constexpr std::uint64_t kPageWords = kPagePairs / kPairsPerWord;

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

std::uint64_t& SepsetStore::empty_word(std::uint64_t pair) {
  const std::uint64_t page = pair / kPagePairs;
  if (page >= empty_pages_.size()) empty_pages_.resize(page + 1);
  if (empty_pages_[page].empty()) empty_pages_[page].resize(kPageWords);
  return empty_pages_[page][pair % kPagePairs / 64];
}

void SepsetStore::set(VarId x, VarId y, std::vector<VarId> sepset) {
  const std::uint64_t pair = pair_index(x, y);
  if (has_empty(pair)) return;
  if (!sepset.empty()) {
    sets_.try_emplace(key(x, y), std::move(sepset));
    return;
  }
  if (sets_.contains(key(x, y))) return;
  empty_word(pair) |= std::uint64_t{1} << (pair % 64);
  ++empty_count_;
}

void SepsetStore::set_empty(std::span<const std::uint64_t> removed) {
  assert(sets_.empty());
  for (std::size_t w = 0; w < removed.size(); ++w) {
    if (removed[w] == 0) continue;
    std::uint64_t& word = empty_word(w * kPairsPerWord);
    empty_count_ += static_cast<std::size_t>(std::popcount(removed[w] & ~word));
    word |= removed[w];
  }
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
