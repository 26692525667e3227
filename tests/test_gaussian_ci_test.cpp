#include "stats/gaussian_ci_test.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "stats/special_functions.hpp"

namespace fastbns {
namespace {

/// Independent reference implementations the Fisher-z pipeline is checked
/// against: naive two-pass Pearson correlation and the erfc-based normal
/// survival function (the production path goes through the incomplete
/// gamma function instead).
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

double erfc_survival(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

/// Fisher-z reference for a given (partial) correlation. The test's
/// degrees_of_freedom reports the effective sample size m - |S| - 3 (the
/// z-scaling factor), the Fisher analog of the G^2 table df.
CiResult reference_fisher_z(double r, Count m, std::size_t depth,
                            double alpha) {
  const auto df = static_cast<std::int64_t>(m) -
                  static_cast<std::int64_t>(depth) - 3;
  const double statistic =
      std::sqrt(static_cast<double>(df)) * std::abs(std::atanh(r));
  const double p = 2.0 * erfc_survival(statistic);
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

TEST(GaussianCiTest, FactoryMatchesDirectConstruction) {
  const auto data = chain_dataset(800, 47);
  const std::unique_ptr<CiTest> from_factory = make_fisher_z_test(data);
  GaussianCiTest direct(data, {});
  const CiResult a = from_factory->test(0, 1, std::vector<VarId>{2});
  const CiResult b = direct.test(0, 1, std::vector<VarId>{2});
  EXPECT_EQ(a.statistic, b.statistic);
  EXPECT_EQ(a.independent, b.independent);
}

TEST(GaussianCiTest, StandardNormalSurvivalMatchesErfc) {
  for (const double x : {0.0, 0.5, 1.0, 1.959964, 3.0, -1.0, -2.5}) {
    EXPECT_NEAR(standard_normal_survival(x), erfc_survival(x), 1e-12)
        << "x = " << x;
  }
  EXPECT_NEAR(standard_normal_survival(0.0), 0.5, 1e-15);
  EXPECT_NEAR(standard_normal_survival(1.959964), 0.025, 1e-6);
}

}  // namespace
}  // namespace fastbns
