#include "stats/gaussian_ci_test.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/dag.hpp"
#include "network/linear_gaussian.hpp"
#include "stats/special_functions.hpp"

namespace fastbns {
namespace {

/// Independent reference implementations the Fisher-z pipeline is checked
/// against: naive two-pass Pearson correlation, the normal survival
/// function through the incomplete gamma (Z^2 ~ Chi2_1; the production
/// path calls erfc instead), and a Gauss-Jordan partial correlation (the
/// production path factors the conditioning block instead).
double naive_correlation(const ContinuousDataset& data, VarId x, VarId y) {
  const Count m = data.num_samples();
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (Count s = 0; s < m; ++s) {
    mean_x += data.value(s, x);
    mean_y += data.value(s, y);
  }
  mean_x /= static_cast<double>(m);
  mean_y /= static_cast<double>(m);
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;
  for (Count s = 0; s < m; ++s) {
    const double dx = data.value(s, x) - mean_x;
    const double dy = data.value(s, y) - mean_y;
    sxx += dx * dx;
    syy += dy * dy;
    sxy += dx * dy;
  }
  return sxy / std::sqrt(sxx * syy);
}

double gamma_survival(double x) {
  const double two_sided = regularized_gamma_q(0.5, 0.5 * x * x);
  return x >= 0.0 ? 0.5 * two_sided : 1.0 - 0.5 * two_sided;
}

/// Partial correlation of x and y given z off the precision matrix: invert
/// the correlation submatrix over [x, y, z...] by Gauss-Jordan with partial
/// pivoting and read r = -P_xy / sqrt(P_xx P_yy). A pivot below 1e-12
/// (a singular submatrix) gives 0.
double gauss_jordan_partial_correlation(const CorrelationMatrix& stats,
                                        VarId x, VarId y,
                                        const std::vector<VarId>& z) {
  if (stats.is_degenerate(x) || stats.is_degenerate(y)) return 0.0;
  std::vector<VarId> vars{x, y};
  vars.insert(vars.end(), z.begin(), z.end());
  const std::size_t k = vars.size();
  std::vector<double> a(k * k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      a[i * k + j] = stats.corr(vars[i], vars[j]);
    }
  }
  std::vector<std::size_t> swapped(k);
  for (std::size_t step = 0; step < k; ++step) {
    std::size_t best = step;
    for (std::size_t r = step + 1; r < k; ++r) {
      if (std::fabs(a[r * k + step]) > std::fabs(a[best * k + step])) best = r;
    }
    if (std::fabs(a[best * k + step]) < 1e-12) return 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      std::swap(a[best * k + c], a[step * k + c]);
    }
    swapped[step] = best;
    const double inv_pivot = 1.0 / a[step * k + step];
    a[step * k + step] = 1.0;
    for (std::size_t c = 0; c < k; ++c) a[step * k + c] *= inv_pivot;
    for (std::size_t r = 0; r < k; ++r) {
      if (r == step) continue;
      const double factor = a[r * k + step];
      a[r * k + step] = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        a[r * k + c] -= factor * a[step * k + c];
      }
    }
  }
  // Row swaps of the in-place inverse come back out as column swaps.
  for (std::size_t step = k; step-- > 0;) {
    for (std::size_t r = 0; r < k; ++r) {
      std::swap(a[r * k + swapped[step]], a[r * k + step]);
    }
  }
  const double pxx = a[0];
  const double pyy = a[k + 1];
  if (!(pxx > 0.0 && pyy > 0.0)) return 0.0;
  return -a[1] / std::sqrt(pxx * pyy);
}

/// Fisher-z reference for a given (partial) correlation. The test's
/// degrees_of_freedom reports the effective sample size m - |S| - 3 (the
/// z-scaling factor), the Fisher analog of the G^2 table df.
CiResult reference_fisher_z(double r, Count m, std::size_t depth,
                            double alpha) {
  const auto df = static_cast<std::int64_t>(m) -
                  static_cast<std::int64_t>(depth) - 3;
  const double statistic =
      std::sqrt(static_cast<double>(df)) * std::abs(std::atanh(r));
  const double p = 2.0 * gamma_survival(statistic);
  return CiResult{statistic, p, df, p > alpha};
}

/// x -> z -> y linear-Gaussian chain plus an unrelated w: x ⫫ y | z,
/// x and y marginally dependent, w independent of everything.
ContinuousDataset chain_dataset(Count m, std::uint64_t seed) {
  ContinuousDataset data(4, m);
  Rng rng(seed);
  for (Count s = 0; s < m; ++s) {
    const double x = rng.normal();
    const double z = 0.9 * x + 0.5 * rng.normal();
    const double y = 0.8 * z + 0.5 * rng.normal();
    data.set(s, 0, x);
    data.set(s, 1, y);
    data.set(s, 2, z);
    data.set(s, 3, rng.normal());
  }
  return data;
}

TEST(GaussianCiTest, MarginalStatisticMatchesHandComputedReference) {
  const auto data = chain_dataset(2000, 7);
  GaussianCiTest test(data, {});
  const CiResult result = test.test(0, 1, {});
  const double r = naive_correlation(data, 0, 1);
  const CiResult expected = reference_fisher_z(r, 2000, 0, 0.05);
  EXPECT_NEAR(result.statistic, expected.statistic, 1e-9);
  EXPECT_NEAR(result.p_value, expected.p_value, 1e-12);
  EXPECT_FALSE(result.independent);  // chain: marginally dependent
  EXPECT_EQ(result.degrees_of_freedom, expected.degrees_of_freedom);
}

TEST(GaussianCiTest, PartialCorrelationMatchesClosedForm) {
  const auto data = chain_dataset(2000, 7);
  GaussianCiTest test(data, {});
  const CiResult result = test.test(0, 1, std::vector<VarId>{2});
  // Order-1 partial correlation has a closed form in marginal
  // correlations — no matrix inversion needed for the reference.
  const double rxy = naive_correlation(data, 0, 1);
  const double rxz = naive_correlation(data, 0, 2);
  const double ryz = naive_correlation(data, 1, 2);
  const double partial = (rxy - rxz * ryz) /
                         std::sqrt((1.0 - rxz * rxz) * (1.0 - ryz * ryz));
  const CiResult expected = reference_fisher_z(partial, 2000, 1, 0.05);
  EXPECT_NEAR(result.statistic, expected.statistic, 1e-8);
  EXPECT_NEAR(result.p_value, expected.p_value, 1e-10);
  EXPECT_EQ(result.degrees_of_freedom, expected.degrees_of_freedom);
}

TEST(GaussianCiTest, ChainSeparatesGivenMiddleAndKeepsUnrelatedApart) {
  const auto data = chain_dataset(4000, 11);
  GaussianCiTest test(data, {});
  EXPECT_TRUE(test.test(0, 1, std::vector<VarId>{2}).independent);
  EXPECT_TRUE(test.test(0, 3, {}).independent);
  EXPECT_TRUE(test.test(1, 3, std::vector<VarId>{2}).independent);
  EXPECT_FALSE(test.test(0, 2, {}).independent);
  EXPECT_FALSE(test.test(1, 2, {}).independent);
  EXPECT_EQ(test.tests_performed(), 5);
}

TEST(GaussianCiTest, InsufficientSamplesSkipConservatively) {
  // m - |S| - 3 <= 0 mirrors the discrete oversized-table skip: no
  // verdict is possible, so the edge is kept (independent = false) and
  // degrees_of_freedom = -1 marks the skip.
  const auto data = chain_dataset(5, 3);
  GaussianCiTest test(data, {});
  const CiResult skipped = test.test(0, 1, std::vector<VarId>{2, 3});
  EXPECT_FALSE(skipped.independent);
  EXPECT_EQ(skipped.degrees_of_freedom, -1);
  EXPECT_EQ(skipped.statistic, 0.0);
  // One conditioning variable fewer fits (5 - 1 - 3 = 1 > 0) and runs.
  EXPECT_NE(test.test(0, 1, std::vector<VarId>{2}).degrees_of_freedom, -1);
}

TEST(GaussianCiTest, ConstantColumnIsIndependentOfEverything) {
  ContinuousDataset data(3, 100);
  Rng rng(17);
  for (Count s = 0; s < 100; ++s) {
    data.set(s, 0, rng.normal());
    data.set(s, 1, 4.25);  // constant: zero variance
    data.set(s, 2, rng.normal());
  }
  GaussianCiTest test(data, {});
  EXPECT_TRUE(test.statistics().is_degenerate(1));
  EXPECT_FALSE(test.statistics().is_degenerate(0));
  const CiResult marginal = test.test(0, 1, {});
  EXPECT_TRUE(marginal.independent);
  EXPECT_EQ(marginal.p_value, 1.0);
  EXPECT_TRUE(test.test(0, 1, std::vector<VarId>{2}).independent);
}

TEST(GaussianCiTest, SingularConditioningSetSeparates) {
  // z duplicates x, so conditioning on z determines x exactly: the
  // precision pass finds the submatrix singular and reports
  // independence with p = 1 (the set explains the endpoint away).
  ContinuousDataset data(3, 500);
  Rng rng(23);
  for (Count s = 0; s < 500; ++s) {
    const double x = rng.normal();
    data.set(s, 0, x);
    data.set(s, 1, 0.7 * x + 0.3 * rng.normal());
    data.set(s, 2, x);
  }
  GaussianCiTest test(data, {});
  EXPECT_FALSE(test.test(0, 1, {}).independent);
  const CiResult conditioned = test.test(0, 1, std::vector<VarId>{2});
  EXPECT_TRUE(conditioned.independent);
  EXPECT_EQ(conditioned.p_value, 1.0);
}

TEST(GaussianCiTest, CloneSharesStatisticsAndMatchesResults) {
  const auto data = chain_dataset(1000, 29);
  GaussianCiTest test(data, {});
  (void)test.test(0, 1, {});
  const std::unique_ptr<CiTest> clone = test.clone();
  EXPECT_EQ(clone->tests_performed(), 0);  // counters never transfer
  EXPECT_EQ(clone->config_token(), test.config_token());
  const std::vector<VarId> z{2};
  const CiResult original = test.test(0, 1, z);
  const CiResult cloned = clone->test(0, 1, z);
  EXPECT_EQ(original.statistic, cloned.statistic);
  EXPECT_EQ(original.p_value, cloned.p_value);
  EXPECT_EQ(original.independent, cloned.independent);
  // The sufficient statistic is shared, not copied.
  const auto* gaussian_clone = dynamic_cast<const GaussianCiTest*>(clone.get());
  ASSERT_NE(gaussian_clone, nullptr);
  EXPECT_EQ(&gaussian_clone->statistics(), &test.statistics());
}

TEST(GaussianCiTest, ConfigTokenSeparatesAlphaAndBuilder) {
  const auto data = chain_dataset(200, 31);
  const GaussianCiTest base(data, {});
  GaussianCiTestOptions strict;
  strict.alpha = 0.01;
  const GaussianCiTest strict_test(data, strict);
  GaussianCiTestOptions scalar;
  scalar.covariance_builder = "scalar";
  const GaussianCiTest scalar_test(data, scalar);
  EXPECT_NE(base.config_token(), strict_test.config_token());
  EXPECT_NE(base.config_token(), scalar_test.config_token());
}

TEST(GaussianCiTest, ScalarAndBlockedBuildersAgree) {
  const auto data = chain_dataset(3000, 37);
  GaussianCiTestOptions scalar;
  scalar.covariance_builder = "scalar";
  GaussianCiTestOptions blocked;
  blocked.covariance_builder = "blocked";
  GaussianCiTest scalar_test(data, scalar);
  GaussianCiTest blocked_test(data, blocked);
  const VarId n = data.num_vars();
  for (VarId i = 0; i < n; ++i) {
    for (VarId j = 0; j < n; ++j) {
      EXPECT_NEAR(scalar_test.statistics().corr(i, j),
                  blocked_test.statistics().corr(i, j), 1e-9);
    }
  }
  const CiResult a = scalar_test.test(0, 1, std::vector<VarId>{2});
  const CiResult b = blocked_test.test(0, 1, std::vector<VarId>{2});
  EXPECT_NEAR(a.statistic, b.statistic, 1e-7);
  EXPECT_EQ(a.independent, b.independent);
}

TEST(GaussianCiTest, UnknownCovarianceBuilderThrows) {
  const auto data = chain_dataset(50, 41);
  GaussianCiTestOptions bad;
  bad.covariance_builder = "tiled";
  try {
    const GaussianCiTest test(data, bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("tiled"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("scalar"), std::string::npos);
  }
}

TEST(GaussianCiTest, WorkloadMetadataDegradesCleanly) {
  const auto data = chain_dataset(100, 43);
  GaussianCiTest test(data, {});
  EXPECT_EQ(test.table_builder_name(), "n/a");
  EXPECT_EQ(test.table_cell_cap(), 0u);
  EXPECT_FALSE(test.set_sample_parallel(true));
}

TEST(GaussianCiTest, StandardNormalSurvivalMatchesIncompleteGamma) {
  for (double x = -8.0; x <= 8.0; x += 0.0625) {
    const double expected = gamma_survival(x);
    EXPECT_NEAR(standard_normal_survival(x), expected, 1e-12 * expected)
        << "x = " << x;
  }
  for (const double x : {10.0, 20.0, 30.0}) {
    const double expected = gamma_survival(x);
    EXPECT_NEAR(standard_normal_survival(x), expected, 1e-12 * expected)
        << "x = " << x;
  }
  EXPECT_EQ(standard_normal_survival(0.0), 0.5);
  EXPECT_NEAR(standard_normal_survival(1.959964), 0.025, 1e-6);
}

/// Ten SEM variables over a fixed DAG, then three columns that make the
/// conditioning block or an endpoint degenerate: 10 is constant, 11 copies
/// variable 0, 12 copies variable 11.
ContinuousDataset sem_dataset_with_degenerate_columns(Count m) {
  Dag dag(10);
  for (const auto& [from, to] :
       std::vector<std::pair<VarId, VarId>>{{0, 1}, {0, 2}, {1, 3}, {2, 3},
                                            {3, 4}, {4, 5}, {1, 6}, {6, 7},
                                            {5, 8}, {7, 8}, {2, 9}, {9, 5}}) {
    dag.add_edge(from, to);
  }
  Rng rng(53);
  const LinearGaussianSem sem = random_linear_gaussian_sem(dag, rng);
  const ContinuousDataset sem_data = sample_linear_gaussian(sem, m, rng);
  ContinuousDataset data(13, m);
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < 10; ++v) data.set(s, v, sem_data.value(s, v));
    data.set(s, 10, 2.5);
    data.set(s, 11, sem_data.value(s, 0));
    data.set(s, 12, sem_data.value(s, 0));
  }
  return data;
}

/// The Fisher-z result the Gauss-Jordan reference gives for (x, y | z).
CiResult gauss_jordan_result(const GaussianCiTest& test, VarId x, VarId y,
                             const std::vector<VarId>& z) {
  const CorrelationMatrix& stats = test.statistics();
  double r = gauss_jordan_partial_correlation(stats, x, y, z);
  r = std::clamp(r, -(1.0 - 1e-12), 1.0 - 1e-12);
  return reference_fisher_z(r, stats.num_samples, z.size(),
                            test.options().alpha);
}

TEST(GaussianCiTest, CholeskyFactorMatchesGaussJordanOnSemData) {
  const auto data = sem_dataset_with_degenerate_columns(3000);
  GaussianCiTest test(data, {});
  Rng rng(59);
  std::vector<VarId> order(10);
  for (VarId v = 0; v < 10; ++v) order[static_cast<std::size_t>(v)] = v;
  int independent = 0;
  int tests = 0;
  for (std::size_t depth = 1; depth <= 5; ++depth) {
    for (int trial = 0; trial < 60; ++trial) {
      rng.shuffle(order);
      const VarId x = order[0];
      const VarId y = order[1];
      const auto z_begin = order.begin() + 2;
      std::vector<VarId> z(z_begin,
                           z_begin + static_cast<std::ptrdiff_t>(depth));
      std::sort(z.begin(), z.end());
      const CiResult result = test.test(x, y, z);
      const CiResult expected = gauss_jordan_result(test, x, y, z);
      EXPECT_EQ(result.independent, expected.independent)
          << x << " " << y << " depth " << depth << " trial " << trial;
      EXPECT_NEAR(result.statistic, expected.statistic,
                  1e-9 * expected.statistic)
          << x << " " << y << " depth " << depth << " trial " << trial;
      EXPECT_EQ(result.degrees_of_freedom, expected.degrees_of_freedom);
      independent += expected.independent ? 1 : 0;
      ++tests;
    }
  }
  // Both decisions occur, so the agreement above is not one-sided.
  EXPECT_GT(independent, 0);
  EXPECT_LT(independent, tests);
}

TEST(GaussianCiTest, DegenerateConditioningSetsMatchGaussJordan) {
  const auto data = sem_dataset_with_degenerate_columns(3000);
  GaussianCiTest test(data, {});
  ASSERT_TRUE(test.statistics().is_degenerate(10));
  struct Case {
    VarId x;
    VarId y;
    std::vector<VarId> z;
    bool independent;
  };
  const std::vector<Case> cases{
      // A constant z adds nothing: 1 -> 3 stays dependent, and 2 and 6
      // stay separated by {0, 1}.
      {1, 3, {2, 10}, false},
      {2, 6, {0, 1, 10}, true},
      {1, 3, {10}, false},
      // Two identical z columns make the block singular: "independent".
      {1, 3, {0, 11}, true},
      {1, 3, {4, 11, 12}, true},
      // A z that duplicates x determines it: "independent".
      {0, 1, {11}, true},
      {0, 3, {4, 11}, true},
  };
  for (const Case& c : cases) {
    const CiResult result = test.test(c.x, c.y, c.z);
    const CiResult expected = gauss_jordan_result(test, c.x, c.y, c.z);
    EXPECT_EQ(expected.independent, c.independent) << c.x << " " << c.y;
    EXPECT_EQ(result.independent, c.independent) << c.x << " " << c.y;
    EXPECT_NEAR(result.statistic, expected.statistic,
                1e-9 * expected.statistic)
        << c.x << " " << c.y;
    if (c.independent && expected.statistic == 0.0) {
      EXPECT_EQ(result.p_value, 1.0) << c.x << " " << c.y;
    }
  }
}

TEST(GaussianCiTest, EndpointsEqualGivenSetStayDependent) {
  // x and y that copy each other are dependent given any S, as they are
  // at |S| = 0. The Gauss-Jordan reference, whose [x, y, S] submatrix is
  // singular here, would answer "independent".
  const auto data = sem_dataset_with_degenerate_columns(3000);
  GaussianCiTest test(data, {});
  EXPECT_FALSE(test.test(0, 11, {}).independent);
  EXPECT_FALSE(test.test(0, 11, std::vector<VarId>{3}).independent);
  EXPECT_FALSE(test.test(11, 12, std::vector<VarId>{2, 5}).independent);
}

}  // namespace
}  // namespace fastbns
