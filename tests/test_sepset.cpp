#include "pc/sepset.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace fastbns {
namespace {

TEST(SepsetStore, SetAndFind) {
  SepsetStore store;
  EXPECT_EQ(store.find(0, 1), nullptr);
  store.set(0, 1, {2, 3});
  const auto* sepset = store.find(0, 1);
  ASSERT_NE(sepset, nullptr);
  EXPECT_EQ(*sepset, (std::vector<VarId>{2, 3}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(SepsetStore, UnorderedPairKey) {
  SepsetStore store;
  store.set(5, 2, {7});
  EXPECT_NE(store.find(2, 5), nullptr);
  EXPECT_NE(store.find(5, 2), nullptr);
  EXPECT_EQ(*store.find(2, 5), (std::vector<VarId>{7}));
}

TEST(SepsetStore, FirstWriteWins) {
  SepsetStore store;
  store.set(0, 1, {2});
  store.set(1, 0, {3});  // same pair, different order: ignored
  EXPECT_EQ(*store.find(0, 1), (std::vector<VarId>{2}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(SepsetStore, EmptySepsetIsValid) {
  // The bit-recorded kind still reads as a vector, non-null and empty,
  // from either argument order: the orientation test
  // EmptySepsetIsRecordedNotMissing relies on this.
  SepsetStore store;
  store.set(0, 1, {});
  ASSERT_NE(store.find(0, 1), nullptr);
  EXPECT_TRUE(store.find(0, 1)->empty());
  ASSERT_NE(store.find(1, 0), nullptr);
  EXPECT_TRUE(store.find(1, 0)->empty());
  EXPECT_EQ(store.find(0, 2), nullptr);
}

TEST(SepsetStore, SeparatesWith) {
  SepsetStore store;
  store.set(0, 1, {4, 9});
  EXPECT_TRUE(store.separates_with(0, 1, 4));
  EXPECT_TRUE(store.separates_with(1, 0, 9));
  EXPECT_FALSE(store.separates_with(0, 1, 5));
  EXPECT_FALSE(store.separates_with(2, 3, 4));  // unknown pair
}

TEST(SepsetStore, DistinctPairsDoNotCollide) {
  SepsetStore store;
  store.set(0, 1, {2});
  store.set(0, 2, {3});
  store.set(1, 2, {0});
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(*store.find(0, 2), (std::vector<VarId>{3}));
}

TEST(SepsetStore, LargeIdsHashCorrectly) {
  SepsetStore store;
  store.set(1040, 1039, {0});
  EXPECT_TRUE(store.separates_with(1039, 1040, 0));
  store.set(70001, 70000, {3});
  EXPECT_EQ(*store.find(70000, 70001), (std::vector<VarId>{3}));
}

TEST(SepsetStore, FirstWriteWinsAcrossStorageKinds) {
  // Empty sets live in a bit index and non-empty ones in a map; the
  // first write of the pair must win whichever kind comes first and
  // whichever argument order either write uses.
  for (const bool reversed : {false, true}) {
    const VarId a = reversed ? 5 : 2;
    const VarId b = reversed ? 2 : 5;

    SepsetStore empty_first;
    empty_first.set(2, 5, {});
    empty_first.set(a, b, {7});
    ASSERT_NE(empty_first.find(2, 5), nullptr) << "reversed=" << reversed;
    EXPECT_TRUE(empty_first.find(5, 2)->empty()) << "reversed=" << reversed;
    EXPECT_FALSE(empty_first.separates_with(2, 5, 7));
    EXPECT_EQ(empty_first.size(), 1u);

    SepsetStore set_first;
    set_first.set(2, 5, {7});
    set_first.set(a, b, {});
    ASSERT_NE(set_first.find(5, 2), nullptr) << "reversed=" << reversed;
    EXPECT_EQ(*set_first.find(2, 5), (std::vector<VarId>{7}))
        << "reversed=" << reversed;
    EXPECT_EQ(set_first.size(), 1u);
  }
}

TEST(SepsetStore, SizeCountsBothStorageKinds) {
  SepsetStore store;
  store.set(0, 1, {});
  store.set(0, 2, {3});
  store.set(2, 1, {});
  store.set(1, 0, {});  // repeated pairs do not count twice
  store.set(2, 0, {4});
  EXPECT_EQ(store.size(), 3u);
}

TEST(SepsetStore, EmptySetBitIndexIsComputedIn64Bits) {
  // hi (hi - 1) / 2 + lo leaves 32 bits once hi passes 65,536. Computed
  // in 32 bits, the pair below would land on the index of a small pair.
  constexpr VarId lo = 65537;
  constexpr VarId hi = 70000;
  const std::uint32_t truncated =
      static_cast<std::uint32_t>(static_cast<std::uint32_t>(hi) *
                                 static_cast<std::uint32_t>(hi - 1)) /
          2 +
      static_cast<std::uint32_t>(lo);
  // The small pair whose triangular index is `truncated`.
  VarId small_hi = 1;
  while (static_cast<std::uint64_t>(small_hi + 1) * small_hi / 2 <=
         truncated) {
    ++small_hi;
  }
  const auto small_lo = static_cast<VarId>(
      truncated - static_cast<std::uint64_t>(small_hi) * (small_hi - 1) / 2);
  ASSERT_LT(small_lo, small_hi);

  SepsetStore store;
  store.set(hi, lo, {});
  ASSERT_NE(store.find(lo, hi), nullptr);
  EXPECT_TRUE(store.find(lo, hi)->empty());
  EXPECT_EQ(store.find(small_lo, small_hi), nullptr);
  EXPECT_EQ(store.find(lo, hi + 1), nullptr);
  EXPECT_EQ(store.find(lo - 1, hi), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace fastbns
