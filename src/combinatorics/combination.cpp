#include "combinatorics/combination.hpp"

#include <cassert>

namespace fastbns {

void unrank_combination(std::int32_t p, std::int32_t q, std::uint64_t rank,
                        std::span<std::int32_t> out) noexcept {
  assert(static_cast<std::int32_t>(out.size()) == q);
  assert(rank < binomial(p, q));
  // Position-by-position reconstruction: the number of q-combinations whose
  // first element is `c` equals C(p-1-c, q-1); walk candidates until the
  // remaining rank falls inside that block, then recurse on the suffix.
  std::int32_t candidate = 0;
  for (std::int32_t i = 0; i < q; ++i) {
    for (;; ++candidate) {
      const std::uint64_t block =
          binomial(p - 1 - candidate, q - 1 - i);
      if (rank < block) break;
      rank -= block;
    }
    out[i] = candidate;
    ++candidate;
  }
}

std::uint64_t rank_combination(
    std::int32_t p, std::span<const std::int32_t> combination) noexcept {
  const auto q = static_cast<std::int32_t>(combination.size());
  std::uint64_t rank = 0;
  std::int32_t previous = -1;
  for (std::int32_t i = 0; i < q; ++i) {
    for (std::int32_t c = previous + 1; c < combination[i]; ++c) {
      rank += binomial(p - 1 - c, q - 1 - i);
    }
    previous = combination[i];
  }
  return rank;
}

bool next_combination(std::int32_t p, std::span<std::int32_t> combination) noexcept {
  const auto q = static_cast<std::int32_t>(combination.size());
  if (q == 0) return false;  // the single empty combination has no successor
  // Find the rightmost element that can still be incremented.
  std::int32_t i = q - 1;
  while (i >= 0 && combination[i] == p - q + i) --i;
  if (i < 0) return false;
  ++combination[i];
  for (std::int32_t j = i + 1; j < q; ++j) {
    combination[j] = combination[j - 1] + 1;
  }
  return true;
}

}  // namespace fastbns
