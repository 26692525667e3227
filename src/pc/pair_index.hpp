// The triangular index of unordered variable pairs: the one layout of
// every one-bit-per-pair structure. Depth 0's removal bitmap, which the
// engines fill and the driver commits, and the sepset store's empty-set
// pages both use it.
//
// Pair {lo, hi}, lo < hi, has index hi(hi - 1)/2 + lo, so the pairs of n
// variables are 0 .. n(n - 1)/2 - 1, ordered by hi, then by lo. Bitmap
// word w holds pairs [64w, 64w + 64); the last word of a bitmap is short
// unless 64 divides the pair count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/types.hpp"

namespace fastbns {

/// Pairs per bitmap word.
inline constexpr std::uint64_t kPairsPerWord = 64;

/// Triangular index of the unordered pair {x, y}, x != y. The product
/// leaves 32 bits once hi passes 65,536, so it is computed in 64.
[[nodiscard]] inline std::uint64_t pair_index(VarId x, VarId y) noexcept {
  assert(x != y && x >= 0 && y >= 0);
  const auto lo = static_cast<std::uint64_t>(std::min(x, y));
  const auto hi = static_cast<std::uint64_t>(std::max(x, y));
  return hi * (hi - 1) / 2 + lo;
}

/// n(n - 1)/2, the pairs of `num_nodes` variables; 0 below two.
[[nodiscard]] inline std::uint64_t pair_count(VarId num_nodes) noexcept {
  const auto n = static_cast<std::uint64_t>(std::max<VarId>(num_nodes, 0));
  return n < 2 ? 0 : n * (n - 1) / 2;
}

/// Words of a bitmap over every pair of `num_nodes` variables.
[[nodiscard]] inline std::uint64_t pair_words(VarId num_nodes) noexcept {
  return (pair_count(num_nodes) + kPairsPerWord - 1) / kPairsPerWord;
}

/// An unordered pair, lo < hi.
struct VarPair {
  VarId lo = 0;
  VarId hi = 1;
};

/// The pair at index 64 * word, the first pair of that word. The square
/// root only guesses hi; the two loops make it exact.
[[nodiscard]] inline VarPair word_first_pair(std::uint64_t word) noexcept {
  const std::uint64_t p = word * kPairsPerWord;
  auto hi = static_cast<std::uint64_t>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(p))) / 2.0);
  hi = std::max<std::uint64_t>(hi, 1);
  while (hi * (hi - 1) / 2 > p) --hi;
  while ((hi + 1) * hi / 2 <= p) ++hi;
  return {static_cast<VarId>(p - hi * (hi - 1) / 2), static_cast<VarId>(hi)};
}

}  // namespace fastbns
