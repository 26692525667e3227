#include "dataset/discrete_dataset.hpp"

#include <gtest/gtest.h>

#include "dataset/dataset.hpp"

namespace fastbns {
namespace {

DiscreteDataset make_small(DataLayout layout) {
  DiscreteDataset data(3, 4, {2, 3, 2}, layout);
  // Sample-major fill: rows (s, v) value = (s + v) % cardinality(v).
  for (Count s = 0; s < 4; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      data.set(s, v, static_cast<DataValue>((s + v) % data.cardinality(v)));
    }
  }
  return data;
}

TEST(DiscreteDataset, BasicAccessors) {
  const auto data = make_small(DataLayout::kColumnMajor);
  EXPECT_EQ(data.num_vars(), 3);
  EXPECT_EQ(data.num_samples(), 4);
  EXPECT_EQ(data.cardinality(1), 3);
  EXPECT_EQ(data.cardinalities(), (std::vector<std::int32_t>{2, 3, 2}));
  EXPECT_TRUE(data.has_column_major());
  EXPECT_FALSE(data.has_row_major());
}

TEST(DiscreteDataset, ValueRoundTripAllLayouts) {
  for (const DataLayout layout :
       {DataLayout::kRowMajor, DataLayout::kColumnMajor, DataLayout::kBoth}) {
    const auto data = make_small(layout);
    for (Count s = 0; s < 4; ++s) {
      for (VarId v = 0; v < 3; ++v) {
        EXPECT_EQ(data.value(s, v),
                  static_cast<DataValue>((s + v) % data.cardinality(v)));
      }
    }
  }
}

TEST(DiscreteDataset, ColumnSpanIsContiguousPerVariable) {
  const auto data = make_small(DataLayout::kColumnMajor);
  const auto col = data.column(1);
  ASSERT_EQ(col.size(), 4u);
  for (Count s = 0; s < 4; ++s) {
    EXPECT_EQ(col[s], data.value(s, 1));
  }
}

TEST(DiscreteDataset, RowSpanIsContiguousPerSample) {
  const auto data = make_small(DataLayout::kRowMajor);
  const auto row = data.row(2);
  ASSERT_EQ(row.size(), 3u);
  for (VarId v = 0; v < 3; ++v) {
    EXPECT_EQ(row[v], data.value(2, v));
  }
}

TEST(DiscreteDataset, MissingLayoutThrows) {
  const auto col_only = make_small(DataLayout::kColumnMajor);
  EXPECT_THROW((void)col_only.row(0), std::logic_error);
  const auto row_only = make_small(DataLayout::kRowMajor);
  EXPECT_THROW((void)row_only.column(0), std::logic_error);
}

TEST(DiscreteDataset, SetWritesBothBuffers) {
  DiscreteDataset data(2, 2, {4, 4}, DataLayout::kBoth);
  data.set(1, 0, 3);
  EXPECT_EQ(data.row(1)[0], 3);
  EXPECT_EQ(data.column(0)[1], 3);
}

TEST(DiscreteDataset, ValuesInRangeDetectsViolations) {
  DiscreteDataset data(2, 2, {2, 2}, DataLayout::kColumnMajor);
  EXPECT_TRUE(data.values_in_range());
  data.set(0, 0, 2);  // cardinality is 2, so value 2 is out of range
  EXPECT_FALSE(data.values_in_range());
}

TEST(DiscreteDataset, HeadTakesPrefix) {
  const auto data = make_small(DataLayout::kBoth);
  const auto head = data.head(2);
  EXPECT_EQ(head.num_samples(), 2);
  EXPECT_EQ(head.num_vars(), 3);
  for (Count s = 0; s < 2; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      EXPECT_EQ(head.value(s, v), data.value(s, v));
    }
  }
}

TEST(DiscreteDataset, CardinalityMismatchThrows) {
  EXPECT_THROW(DiscreteDataset(3, 4, {2, 2}, DataLayout::kColumnMajor),
               std::invalid_argument);
}

TEST(DiscreteDataset, Codes8MirrorsValuesForSmallCardinalities) {
  const auto data = make_small(DataLayout::kColumnMajor);
  for (VarId v = 0; v < data.num_vars(); ++v) {
    ASSERT_TRUE(data.has_codes8(v));
    const std::span<const std::uint8_t> codes = data.codes8(v);
    ASSERT_EQ(codes.size(), static_cast<std::size_t>(data.num_samples()));
    for (Count s = 0; s < data.num_samples(); ++s) {
      EXPECT_EQ(codes[static_cast<std::size_t>(s)], data.value(s, v))
          << "v=" << v << " s=" << s;
    }
  }
}

TEST(DiscreteDataset, Codes8GuardsCardinalityPast255) {
  // Values are bytes either way, but the packed-column contract (clamped
  // into [0, cardinality)) is only meaningful up to 255 states; larger
  // declared cardinalities fall back gracefully.
  DiscreteDataset data(3, 4, {255, 256, 300}, DataLayout::kColumnMajor);
  EXPECT_TRUE(data.has_codes8(0));
  EXPECT_FALSE(data.has_codes8(1));
  EXPECT_FALSE(data.has_codes8(2));
  EXPECT_TRUE(data.codes8(1).empty());
  data.set(0, 0, 254);
  EXPECT_EQ(data.codes8(0)[0], 254);
}

TEST(DiscreteDataset, Codes8ClampsOutOfRangeValues) {
  // The SIMD kernels index cell buffers without bounds checks; the
  // packed column clamps malformed values so they can never escape the
  // table even when the raw buffers carry them (values_in_range stays
  // the detector for that condition).
  DiscreteDataset data(2, 3, {2, 3}, DataLayout::kBoth);
  data.set(0, 0, 7);  // out of range for cardinality 2
  EXPECT_FALSE(data.values_in_range());
  EXPECT_EQ(data.value(0, 0), 7);     // raw buffers keep the bad value
  EXPECT_EQ(data.codes8(0)[0], 1);    // packed column clamps to card-1
}

TEST(DiscreteDataset, Codes8RidesWithTheColumnMajorBuffer) {
  // Row-major-only datasets (the cache-unfriendly ablation path) never
  // stream packed codes, so they don't pay for the mirror; it comes with
  // the column-major buffer and head() keeps it.
  const auto row_only = make_small(DataLayout::kRowMajor);
  EXPECT_FALSE(row_only.has_codes8(0));
  EXPECT_TRUE(row_only.codes8(0).empty());
  const auto data = make_small(DataLayout::kBoth);
  ASSERT_TRUE(data.has_codes8(0));
  for (VarId v = 0; v < data.num_vars(); ++v) {
    for (Count s = 0; s < data.num_samples(); ++s) {
      EXPECT_EQ(data.codes8(v)[static_cast<std::size_t>(s)],
                data.value(s, v));
    }
  }
  const auto head = data.head(2);
  for (VarId v = 0; v < head.num_vars(); ++v) {
    for (Count s = 0; s < head.num_samples(); ++s) {
      EXPECT_EQ(head.codes8(v)[static_cast<std::size_t>(s)],
                head.value(s, v));
    }
  }
}

TEST(ContinuousDataset, StoresAndReadsBackDoubles) {
  ContinuousDataset data(3, 4);
  for (Count s = 0; s < 4; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      data.set(s, v, 0.5 * static_cast<double>(s) - static_cast<double>(v));
    }
  }
  EXPECT_EQ(data.num_vars(), 3);
  EXPECT_EQ(data.num_samples(), 4);
  EXPECT_EQ(data.value(2, 1), 0.0);
  EXPECT_EQ(data.column(1).size(), 4u);
  EXPECT_EQ(data.column(1)[2], 0.0);
  const ContinuousDataset head = data.head(2);
  EXPECT_EQ(head.num_samples(), 2);
  EXPECT_EQ(head.value(1, 2), data.value(1, 2));
}

TEST(ContinuousDataset, ExternalBuffersRejectWrongSizes) {
  std::vector<double> cols(6, 0.0);
  const ExternalContinuousBuffers ok{.cols = cols};
  EXPECT_NO_THROW(ContinuousDataset(3, 2, ok));
  const ExternalContinuousBuffers short_buffer{
      .cols = std::span<double>(cols.data(), 5)};
  EXPECT_THROW(ContinuousDataset(3, 2, short_buffer), std::invalid_argument);
}

TEST(Dataset, KindDispatchAndAccessorGuards) {
  const Dataset discrete(DiscreteDataset(2, 3, {2, 2}));
  EXPECT_EQ(discrete.kind(), DatasetKind::kDiscrete);
  EXPECT_TRUE(discrete.is_discrete());
  EXPECT_FALSE(discrete.is_continuous());
  EXPECT_EQ(discrete.num_vars(), 2);
  EXPECT_EQ(discrete.num_samples(), 3);
  EXPECT_NO_THROW((void)discrete.discrete());
  EXPECT_THROW((void)discrete.continuous(), std::logic_error);
  EXPECT_EQ(discrete.continuous_ptr(), nullptr);

  const Dataset continuous(ContinuousDataset(2, 3));
  EXPECT_EQ(continuous.kind(), DatasetKind::kContinuous);
  EXPECT_TRUE(continuous.is_continuous());
  EXPECT_NO_THROW((void)continuous.continuous());
  EXPECT_THROW((void)continuous.discrete(), std::logic_error);
  EXPECT_EQ(std::string(to_string(DatasetKind::kDiscrete)), "discrete");
  EXPECT_EQ(std::string(to_string(DatasetKind::kContinuous)), "continuous");
}

TEST(Dataset, BorrowAliasesWithoutCopying) {
  const DiscreteDataset owned(2, 3, {2, 2});
  const Dataset borrowed = Dataset::borrow(owned);
  EXPECT_EQ(&borrowed.discrete(), &owned);  // no copy, same object
  // Copies of the wrapper stay shallow: same underlying store.
  const Dataset copy = borrowed;
  EXPECT_EQ(&copy.discrete(), &owned);

  const ContinuousDataset owned_cont(2, 3);
  const Dataset borrowed_cont = Dataset::borrow(owned_cont);
  EXPECT_EQ(&borrowed_cont.continuous(), &owned_cont);
}

}  // namespace
}  // namespace fastbns
