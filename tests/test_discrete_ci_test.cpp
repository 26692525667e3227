#include "stats/discrete_ci_test.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stats/simd_dispatch.hpp"
#include "stats/special_functions.hpp"
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

/// The reference statistic: the log form of G^2,
/// 2 sum N ln(N * Nz / (Nxz * Nyz)) over the non-empty cells, with one
/// logarithm and one division per cell, over counts read sample by sample
/// through value(), with the standard df and the chi-square p-value.
CiResult log_form_g2(const DiscreteDataset& data, VarId x, VarId y,
                     const std::vector<VarId>& z, double alpha) {
  const auto cx = static_cast<std::size_t>(data.cardinality(x));
  const auto cy = static_cast<std::size_t>(data.cardinality(y));
  std::size_t cz_total = 1;
  for (const VarId zi : z) {
    cz_total *= static_cast<std::size_t>(data.cardinality(zi));
  }
  std::vector<Count> cells(cx * cy * cz_total, 0);
  for (Count s = 0; s < data.num_samples(); ++s) {
    std::size_t zc = 0;
    for (const VarId zi : z) {
      zc = zc * static_cast<std::size_t>(data.cardinality(zi)) +
           data.value(s, zi);
    }
    ++cells[(data.value(s, x) * cy + data.value(s, y)) * cz_total + zc];
  }

  std::vector<Count> margin_xz(cx * cz_total, 0);
  std::vector<Count> margin_yz(cy * cz_total, 0);
  std::vector<Count> margin_z(cz_total, 0);
  for (std::size_t a = 0; a < cx; ++a) {
    for (std::size_t b = 0; b < cy; ++b) {
      for (std::size_t zc = 0; zc < cz_total; ++zc) {
        const Count nxyz = cells[(a * cy + b) * cz_total + zc];
        margin_xz[a * cz_total + zc] += nxyz;
        margin_yz[b * cz_total + zc] += nxyz;
        margin_z[zc] += nxyz;
      }
    }
  }
  double statistic = 0.0;
  for (std::size_t a = 0; a < cx; ++a) {
    for (std::size_t b = 0; b < cy; ++b) {
      for (std::size_t zc = 0; zc < cz_total; ++zc) {
        const Count nxyz = cells[(a * cy + b) * cz_total + zc];
        if (nxyz == 0) continue;
        const double num = static_cast<double>(nxyz) *
                           static_cast<double>(margin_z[zc]);
        const double den = static_cast<double>(margin_xz[a * cz_total + zc]) *
                           static_cast<double>(margin_yz[b * cz_total + zc]);
        statistic += 2.0 * static_cast<double>(nxyz) * std::log(num / den);
      }
    }
  }
  if (statistic < 0.0) statistic = 0.0;

  const auto df = static_cast<std::int64_t>((cx - 1) * (cy - 1) * cz_total);
  if (df <= 0) return CiResult{0.0, 1.0, df, /*independent=*/true};
  const double p = chi_square_survival(statistic, static_cast<double>(df));
  return CiResult{statistic, p, df, p > alpha};
}

/// Columns x (cardinality cx), y (cy), z1 (2) and z2 (3). x is
/// (z1 + z2) mod cx half the time; y is x mod cy half the time when
/// `dependent`, and is uniform otherwise.
DiscreteDataset reference_dataset(Count m, std::int32_t cx, std::int32_t cy,
                                  bool dependent, std::uint64_t seed) {
  DiscreteDataset data(4, m, {cx, cy, 2, 3}, DataLayout::kColumnMajor);
  Rng rng(seed);
  for (Count s = 0; s < m; ++s) {
    const auto z1 = static_cast<std::int32_t>(rng.next_below(2));
    const auto z2 = static_cast<std::int32_t>(rng.next_below(3));
    const std::int32_t x = rng.next_below(2) == 0
                               ? (z1 + z2) % cx
                               : static_cast<std::int32_t>(rng.next_below(
                                     static_cast<std::uint64_t>(cx)));
    const std::int32_t y = dependent && rng.next_below(2) == 0
                               ? x % cy
                               : static_cast<std::int32_t>(rng.next_below(
                                     static_cast<std::uint64_t>(cy)));
    data.set(s, 0, static_cast<DataValue>(x));
    data.set(s, 1, static_cast<DataValue>(y));
    data.set(s, 2, static_cast<DataValue>(z1));
    data.set(s, 3, static_cast<DataValue>(z2));
  }
  return data;
}

TEST(DiscreteCiTest, StatisticMatchesLogFormReference) {
  // The k ln k form sums terms as large as m ln m that cancel, so its
  // last bits differ from the log form's. The sample counts put cells and
  // margins on both sides of the k ln k table's last entry (4,095); with
  // an empty z, Nz = m.
  std::uint64_t seed = 0;
  for (const Count m : {63, 800, 4095, 4096, 4097, 20000}) {
    for (const std::int32_t cx : {2, 3, 4}) {
      for (const std::int32_t cy : {2, 3, 4}) {
        for (const bool dependent : {false, true}) {
          const auto data = reference_dataset(m, cx, cy, dependent, ++seed);
          for (const std::vector<VarId>& z : std::vector<std::vector<VarId>>{
                   {}, {2}, {3}, {2, 3}}) {
            SCOPED_TRACE("m=" + std::to_string(m) + " cx=" +
                         std::to_string(cx) + " cy=" + std::to_string(cy) +
                         (dependent ? " dependent" : " independent") +
                         " |z|=" + std::to_string(z.size()));
            const CiResult expected = log_form_g2(data, 0, 1, z, 0.05);
            DiscreteCiTest single(data, {});
            DiscreteCiTest grouped(data, {});
            grouped.begin_group(0, 1);
            for (const CiResult& actual :
                 {single.test(0, 1, z), grouped.test_in_group(z)}) {
              EXPECT_EQ(actual.degrees_of_freedom,
                        expected.degrees_of_freedom);
              EXPECT_EQ(actual.independent, expected.independent);
              EXPECT_LE(std::abs(actual.statistic - expected.statistic),
                        1e-9 * std::max(1.0, expected.statistic));
              EXPECT_LE(std::abs(actual.p_value - expected.p_value),
                        1e-9 * expected.p_value);
            }
          }
        }
      }
    }
  }
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
  for (const std::vector<VarId>& z :
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
