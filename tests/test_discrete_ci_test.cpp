#include "stats/discrete_ci_test.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "stats/simd_dispatch.hpp"
#include "stats/table_builder_detail.hpp"

namespace fastbns {
namespace {

/// x, y independent coins; z = x XOR y (so x ⫫ y marginally but x and y
/// are dependent given z).
DiscreteDataset xor_dataset(Count m, std::uint64_t seed,
                            DataLayout layout = DataLayout::kBoth) {
  DiscreteDataset data(3, m, {2, 2, 2}, layout);
  Rng rng(seed);
  for (Count s = 0; s < m; ++s) {
    const auto x = static_cast<DataValue>(rng.next_below(2));
    const auto y = static_cast<DataValue>(rng.next_below(2));
    data.set(s, 0, x);
    data.set(s, 1, y);
    data.set(s, 2, static_cast<DataValue>(x ^ y));
  }
  return data;
}

/// x -> y strongly correlated pair plus an independent w.
DiscreteDataset correlated_dataset(Count m, std::uint64_t seed,
                                   DataLayout layout = DataLayout::kBoth) {
  DiscreteDataset data(3, m, {2, 2, 2}, layout);
  Rng rng(seed);
  for (Count s = 0; s < m; ++s) {
    const auto x = static_cast<DataValue>(rng.next_below(2));
    const auto y =
        rng.next_double() < 0.9 ? x : static_cast<DataValue>(1 - x);
    data.set(s, 0, x);
    data.set(s, 1, y);
    data.set(s, 2, static_cast<DataValue>(rng.next_below(2)));
  }
  return data;
}

TEST(DiscreteCiTest, DetectsMarginalIndependence) {
  const auto data = xor_dataset(4000, 7);
  DiscreteCiTest test(data, {});
  const CiResult result = test.test(0, 1, {});
  EXPECT_TRUE(result.independent);
  EXPECT_GT(result.p_value, 0.05);
  EXPECT_EQ(result.degrees_of_freedom, 1);
}

TEST(DiscreteCiTest, DetectsConditionalDependenceOfXorParents) {
  const auto data = xor_dataset(4000, 7);
  DiscreteCiTest test(data, {});
  const std::vector<VarId> z{2};
  const CiResult result = test.test(0, 1, z);
  EXPECT_FALSE(result.independent);
  EXPECT_LT(result.p_value, 1e-6);
  EXPECT_EQ(result.degrees_of_freedom, 2);  // (2-1)(2-1)*2
}

TEST(DiscreteCiTest, DetectsStrongDependence) {
  const auto data = correlated_dataset(4000, 11);
  DiscreteCiTest test(data, {});
  const CiResult result = test.test(0, 1, {});
  EXPECT_FALSE(result.independent);
  EXPECT_GT(result.statistic, 100.0);
}

TEST(DiscreteCiTest, IndependentOfUnrelatedVariable) {
  const auto data = correlated_dataset(4000, 11);
  DiscreteCiTest test(data, {});
  EXPECT_TRUE(test.test(0, 2, {}).independent);
  const std::vector<VarId> z{1};
  EXPECT_TRUE(test.test(0, 2, z).independent);
}

TEST(DiscreteCiTest, GroupProtocolMatchesDirectCalls) {
  const auto data = xor_dataset(2000, 13);
  DiscreteCiTest direct(data, {});
  DiscreteCiTest grouped(data, {});
  grouped.begin_group(0, 1);
  for (const std::vector<VarId> z :
       {std::vector<VarId>{}, std::vector<VarId>{2}}) {
    const CiResult a = direct.test(0, 1, z);
    const CiResult b = grouped.test_in_group(z);
    EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
    EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
    EXPECT_EQ(a.independent, b.independent);
    EXPECT_EQ(a.degrees_of_freedom, b.degrees_of_freedom);
  }
}

TEST(DiscreteCiTest, GroupsMixingBitsetAndCodeStreamTablesMatchFreshTests) {
  // The serial kernel counts a |z| <= 1 table of at most kBitsetCells
  // cells by bitset intersection and reads no endpoint codes; any other
  // table reads the code stream, which the test builds only then. Group
  // (0, 1) goes from bitset tables to an 81-cell table and a depth-2
  // table and back, then starts again on the same pair (the memo keeps
  // the stream); group (0, 4) switches to sample-parallel builds, which
  // read the stream, after a bitset table that did not build it. 5000
  // samples cross a 4096-sample block. Every result must equal a fresh
  // instance's test().
  const Count m = 5000;
  DiscreteDataset data(5, m, {3, 3, 2, 9, 4}, DataLayout::kColumnMajor);
  Rng rng(61);
  for (Count s = 0; s < m; ++s) {
    const auto x = static_cast<DataValue>(rng.next_below(3));
    data.set(s, 0, x);
    data.set(s, 1,
             rng.next_below(4) == 0
                 ? static_cast<DataValue>(rng.next_below(3))
                 : x);
    data.set(s, 2, static_cast<DataValue>(rng.next_below(2)));
    data.set(s, 3, static_cast<DataValue>(rng.next_below(9)));
    data.set(s, 4, static_cast<DataValue>(rng.next_below(4)));
  }
  ASSERT_LE(std::size_t{3 * 3 * 4}, table_detail::kBitsetCells);
  ASSERT_GT(std::size_t{3 * 3 * 9}, table_detail::kBitsetCells);

  const auto expect_fresh = [&data](DiscreteCiTest& grouped, VarId x, VarId y,
                                    const std::vector<VarId>& z) {
    SCOPED_TRACE("pair (" + std::to_string(x) + ", " + std::to_string(y) +
                 ") |z|=" + std::to_string(z.size()) + " first z=" +
                 (z.empty() ? std::string("-") : std::to_string(z[0])));
    DiscreteCiTest fresh(data, {});
    const CiResult expected = fresh.test(x, y, z);
    const CiResult actual = grouped.test_in_group(z);
    EXPECT_EQ(actual.statistic, expected.statistic);
    EXPECT_EQ(actual.p_value, expected.p_value);
    EXPECT_EQ(actual.degrees_of_freedom, expected.degrees_of_freedom);
    EXPECT_EQ(actual.independent, expected.independent);
  };
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    const ScopedSimdTierOverride guard(tier);
    SCOPED_TRACE(std::string(to_string(active_simd_tier())));
    DiscreteCiTest grouped(data, {});
    grouped.begin_group(0, 1);
    for (const std::vector<VarId>& z : std::vector<std::vector<VarId>>{
             {}, {2}, {4}, {3}, {2}, {2, 4}, {}, {4}}) {
      expect_fresh(grouped, 0, 1, z);
    }
    grouped.begin_group(0, 1);
    expect_fresh(grouped, 0, 1, {3});
    expect_fresh(grouped, 0, 1, {2});

    grouped.begin_group(0, 4);
    expect_fresh(grouped, 0, 4, {2});
    grouped.set_sample_parallel(true);
    expect_fresh(grouped, 0, 4, {2});
    expect_fresh(grouped, 0, 4, {3});
    grouped.set_sample_parallel(false);
    expect_fresh(grouped, 0, 4, {1});
  }
}

TEST(DiscreteCiTest, RowMajorPathMatchesColumnMajor) {
  const auto data = xor_dataset(2000, 17, DataLayout::kBoth);
  CiTestOptions row_options;
  row_options.use_row_major = true;
  DiscreteCiTest row_test(data, row_options);
  DiscreteCiTest col_test(data, {});
  for (VarId x = 0; x < 3; ++x) {
    for (VarId y = 0; y < 3; ++y) {
      if (x == y) continue;
      const CiResult a = row_test.test(x, y, {});
      const CiResult b = col_test.test(x, y, {});
      EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
    }
  }
}

TEST(DiscreteCiTest, SampleParallelMatchesSerial) {
  const auto data = xor_dataset(3000, 19);
  CiTestOptions parallel_options;
  parallel_options.sample_parallel = true;
  DiscreteCiTest parallel_test(data, parallel_options);
  DiscreteCiTest serial_test(data, {});
  const std::vector<VarId> z{2};
  const CiResult a = parallel_test.test(0, 1, z);
  const CiResult b = serial_test.test(0, 1, z);
  EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
  EXPECT_EQ(a.independent, b.independent);
}

TEST(DiscreteCiTest, StandardDfCountsEveryStratum) {
  // Constant z column: only one stratum is populated out of two, and the
  // df still counts both, (2-1)(2-1)*2 (pcalg-style).
  DiscreteDataset data(3, 100, {2, 2, 2}, DataLayout::kBoth);
  Rng rng(31);
  for (Count s = 0; s < 100; ++s) {
    data.set(s, 0, static_cast<DataValue>(rng.next_below(2)));
    data.set(s, 1, static_cast<DataValue>(rng.next_below(2)));
    data.set(s, 2, 0);
  }
  const std::vector<VarId> z{2};
  DiscreteCiTest test(data, {});
  EXPECT_EQ(test.test(0, 1, z).degrees_of_freedom, 2);
}

TEST(DiscreteCiTest, OversizedTableIsConservativelyDependent) {
  const auto data = xor_dataset(100, 37);
  CiTestOptions options;
  options.max_cells = 1;  // force the guard
  DiscreteCiTest test(data, options);
  const std::vector<VarId> z{2};
  const CiResult result = test.test(0, 1, z);
  EXPECT_FALSE(result.independent);
  EXPECT_EQ(result.degrees_of_freedom, -1);
}

TEST(DiscreteCiTest, MaxCellsCapsTheFullTableNotJustConditioning) {
  const auto data = xor_dataset(100, 37);
  // A 2x2 marginal table needs 4 cells: a 3-cell cap skips it even with
  // an empty conditioning set, and an 8-cell cap admits the marginal but
  // not the 2x2x2 conditional table.
  CiTestOptions tight;
  tight.max_cells = 3;
  DiscreteCiTest tight_test(data, tight);
  EXPECT_EQ(tight_test.test(0, 1, {}).degrees_of_freedom, -1);
  CiTestOptions marginal_only;
  marginal_only.max_cells = 4;
  DiscreteCiTest marginal_test(data, marginal_only);
  EXPECT_NE(marginal_test.test(0, 1, {}).degrees_of_freedom, -1);
  const std::vector<VarId> z{2};
  EXPECT_EQ(marginal_test.test(0, 1, z).degrees_of_freedom, -1);
}

TEST(DiscreteCiTest, CountsTestsPerformed) {
  const auto data = xor_dataset(500, 41);
  DiscreteCiTest test(data, {});
  EXPECT_EQ(test.tests_performed(), 0);
  test.test(0, 1, {});
  test.begin_group(0, 2);
  test.test_in_group({});
  EXPECT_EQ(test.tests_performed(), 2);
  test.reset_counter();
  EXPECT_EQ(test.tests_performed(), 0);
}

TEST(DiscreteCiTest, CloneIsIndependentInstance) {
  const auto data = xor_dataset(500, 43);
  DiscreteCiTest test(data, {});
  auto copy = test.clone();
  copy->test(0, 1, {});
  EXPECT_EQ(copy->tests_performed(), 1);
  EXPECT_EQ(test.tests_performed(), 0);
}

TEST(DiscreteCiTest, RequiresColumnMajorBuffer) {
  const auto data = xor_dataset(50, 47, DataLayout::kRowMajor);
  EXPECT_THROW(DiscreteCiTest(data, {}), std::invalid_argument);
}

TEST(DiscreteCiTest, DeterministicAcrossRuns) {
  const auto data = xor_dataset(1000, 53);
  DiscreteCiTest a(data, {});
  DiscreteCiTest b(data, {});
  const std::vector<VarId> z{2};
  EXPECT_DOUBLE_EQ(a.test(0, 1, z).statistic, b.test(0, 1, z).statistic);
}

}  // namespace
}  // namespace fastbns
