#include "combinatorics/combination.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace fastbns {
namespace {

/// Reference enumeration of all q-combinations of {0..p-1} in
/// lexicographic order, built by brute force.
std::vector<std::vector<std::int32_t>> reference_combinations(std::int32_t p,
                                                              std::int32_t q) {
  std::vector<std::vector<std::int32_t>> all;
  std::vector<std::int32_t> current(q);
  for (std::int32_t i = 0; i < q; ++i) current[i] = i;
  if (q > p) return all;
  if (q == 0) {
    all.push_back({});
    return all;
  }
  for (;;) {
    all.push_back(current);
    std::int32_t i = q - 1;
    while (i >= 0 && current[i] == p - q + i) --i;
    if (i < 0) break;
    ++current[i];
    for (std::int32_t j = i + 1; j < q; ++j) current[j] = current[j - 1] + 1;
  }
  return all;
}

TEST(Combination, UnrankMatchesReferenceSmall) {
  const auto reference = reference_combinations(5, 3);
  ASSERT_EQ(reference.size(), 10u);
  std::vector<std::int32_t> out(3);
  for (std::size_t r = 0; r < reference.size(); ++r) {
    unrank_combination(5, 3, r, out);
    EXPECT_EQ(out, reference[r]) << "rank " << r;
  }
}

TEST(Combination, UnrankFirstAndLast) {
  std::vector<std::int32_t> out(4);
  unrank_combination(10, 4, 0, out);
  EXPECT_EQ(out, (std::vector<std::int32_t>{0, 1, 2, 3}));
  unrank_combination(10, 4, binomial(10, 4) - 1, out);
  EXPECT_EQ(out, (std::vector<std::int32_t>{6, 7, 8, 9}));
}

TEST(Combination, EmptyCombination) {
  std::vector<std::int32_t> out;
  unrank_combination(7, 0, 0, out);  // the single depth-0 conditioning set
  EXPECT_TRUE(out.empty());
}

using PQ = std::tuple<std::int32_t, std::int32_t>;

class CombinationRoundTrip : public ::testing::TestWithParam<PQ> {};

TEST_P(CombinationRoundTrip, RankUnrankIdentity) {
  const auto [p, q] = GetParam();
  const std::uint64_t total = binomial(p, q);
  std::vector<std::int32_t> out(q);
  for (std::uint64_t r = 0; r < total; ++r) {
    unrank_combination(p, q, r, out);
    // Ascending and in range.
    for (std::int32_t i = 0; i < q; ++i) {
      EXPECT_GE(out[i], i == 0 ? 0 : out[i - 1] + 1);
      EXPECT_LT(out[i], p);
    }
    EXPECT_EQ(rank_combination(p, out), r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CombinationRoundTrip,
    ::testing::Values(PQ{1, 1}, PQ{4, 2}, PQ{6, 3}, PQ{8, 1}, PQ{8, 8},
                      PQ{9, 4}, PQ{12, 2}, PQ{12, 5}, PQ{15, 3}, PQ{20, 2}));

TEST_P(CombinationRoundTrip, NextCombinationMatchesUnranking) {
  const auto [p, q] = GetParam();
  const std::uint64_t total = binomial(p, q);
  std::vector<std::int32_t> walker(q);
  std::vector<std::int32_t> expected(q);
  unrank_combination(p, q, 0, walker);
  for (std::uint64_t r = 0; r < total; ++r) {
    unrank_combination(p, q, r, expected);
    EXPECT_EQ(walker, expected) << "rank " << r;
    const bool has_next = next_combination(p, walker);
    EXPECT_EQ(has_next, r + 1 < total);
  }
}

TEST(Combination, LargePoolUnrankIsConsistent) {
  // Spot-check a large pool: rank/unrank stays bijective without
  // enumerating everything.
  const std::int32_t p = 400;
  const std::int32_t q = 3;
  std::vector<std::int32_t> out(q);
  for (const std::uint64_t r :
       {std::uint64_t{0}, std::uint64_t{12345}, binomial(400, 3) - 1}) {
    unrank_combination(p, q, r, out);
    EXPECT_EQ(rank_combination(p, out), r);
  }
}

}  // namespace
}  // namespace fastbns
