#include "dataset/discrete_dataset.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  // A variable with no states is rejected in every layout.
  EXPECT_THROW(DiscreteDataset(2, 4, {2, 0}), std::invalid_argument);
  EXPECT_THROW(DiscreteDataset(2, 4, {-1, 2}, DataLayout::kRowMajor),
               std::invalid_argument);
}

TEST(DiscreteDataset, SetRejectsAValueAtItsCardinalityAndWritesNothing) {
  for (const DataLayout layout :
       {DataLayout::kRowMajor, DataLayout::kColumnMajor, DataLayout::kBoth}) {
    DiscreteDataset data = make_small(layout);
    const DataValue before = data.value(2, 1);
    try {
      data.set(2, 1, 3);  // cardinality 3: the largest value is 2
      ADD_FAILURE() << "expected std::out_of_range";
    } catch (const std::out_of_range& error) {
      const std::string message = error.what();
      for (const char* part :
           {"value 3", "sample 2", "variable 1", "cardinality 3"}) {
        EXPECT_NE(message.find(part), std::string::npos) << message;
      }
    }
    EXPECT_EQ(data.value(2, 1), before);
    if (data.has_row_major()) {
      EXPECT_EQ(data.row(2)[1], before);
    }
    if (data.has_column_major()) {
      EXPECT_EQ(data.column(1)[2], before);
    }
    EXPECT_NO_THROW(data.set(2, 1, 2));
  }
}

TEST(DiscreteDataset, ColumnsStartAtAPaddedStride) {
  const Count m = 70;
  const std::size_t stride = DiscreteDataset::column_stride(m);
  EXPECT_EQ(stride, 2 * DiscreteDataset::kColumnPad);
  DiscreteDataset data(3, m, {2, 3, 4});
  data.set(m - 1, 1, 2);
  ASSERT_EQ(data.column_block().size(), 3 * stride);
  EXPECT_EQ(data.column(1).size(), static_cast<std::size_t>(m));
  EXPECT_EQ(data.column(1).data(), data.column_block().data() + stride);
  EXPECT_EQ(data.column_block()[stride + static_cast<std::size_t>(m) - 1], 2);
  EXPECT_EQ(data.head(5).column_block().size(), 3 * DiscreteDataset::kColumnPad);
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
