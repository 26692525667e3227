// Lexicographic combination unranking (Buckles & Lybanon, ACM TOMS
// Algorithm 515), ranking and successor.
//
// This is the paper's "generating conditioning sets on-the-fly" machinery
// (Section IV-C): a work stores only its edge and test counts, and a test
// is named by its rank r over the q-subsets of {0..p-1}, p =
// |adj(Vi)\{Vj}| and q = depth. A run visits ranks in order, so it starts
// at {0..q-1} and steps with `next_combination`. `unrank_combination`
// reconstructs the r-th subset directly, without the C(p, q) earlier
// ones: the commit unranks each removal's sepset from its accepting rank
// this way, and the materialized baseline unranks every set.
#pragma once

#include <cstdint>
#include <span>

#include "combinatorics/binomial.hpp"

namespace fastbns {

/// Writes the `rank`-th (0-based) lexicographic q-combination of
/// {0, 1, ..., p-1} into `out` (ascending). Requires out.size() == q and
/// rank < C(p, q).
void unrank_combination(std::int32_t p, std::int32_t q, std::uint64_t rank,
                        std::span<std::int32_t> out) noexcept;

/// Inverse of unrank_combination: the lexicographic rank of an ascending
/// q-combination of {0..p-1}.
[[nodiscard]] std::uint64_t rank_combination(
    std::int32_t p, std::span<const std::int32_t> combination) noexcept;

/// Advances `combination` (ascending q-subset of {0..p-1}) to its
/// lexicographic successor. Returns false when the input was the last
/// combination (in which case the contents are unspecified).
bool next_combination(std::int32_t p, std::span<std::int32_t> combination) noexcept;

}  // namespace fastbns
