#include "stats/special_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

namespace fastbns {
namespace {

TEST(SpecialFunctions, LogGammaKnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);   // Gamma(5) = 4!
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(SpecialFunctions, GammaPQComplementary) {
  for (double a : {0.5, 1.0, 2.5, 10.0, 50.0}) {
    for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0,
                  1e-10)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(SpecialFunctions, GammaPBoundaries) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_gamma_q(3.0, 0.0), 1.0);
  EXPECT_NEAR(regularized_gamma_p(1.0, 700.0), 1.0, 1e-12);
}

TEST(SpecialFunctions, GammaPIsExponentialCdfForShapeOne) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(SpecialFunctions, GammaPMonotoneInX) {
  double previous = -1.0;
  for (double x = 0.0; x <= 30.0; x += 0.5) {
    const double value = regularized_gamma_p(4.0, x);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

// Critical values of the chi-square distribution: survival(crit, df) = p.
// Reference values from standard chi-square tables.
using Chi2Case = std::tuple<double, double, double>;  // stat, df, expected p

class ChiSquareTable : public ::testing::TestWithParam<Chi2Case> {};

TEST_P(ChiSquareTable, MatchesReference) {
  const auto [stat, df, expected] = GetParam();
  EXPECT_NEAR(chi_square_survival(stat, df), expected, 5e-4)
      << "stat=" << stat << " df=" << df;
}

INSTANTIATE_TEST_SUITE_P(
    CriticalValues, ChiSquareTable,
    ::testing::Values(Chi2Case{3.841, 1, 0.05}, Chi2Case{6.635, 1, 0.01},
                      Chi2Case{5.991, 2, 0.05}, Chi2Case{9.210, 2, 0.01},
                      Chi2Case{7.815, 3, 0.05}, Chi2Case{11.070, 5, 0.05},
                      Chi2Case{18.307, 10, 0.05}, Chi2Case{31.410, 20, 0.05},
                      Chi2Case{2.706, 1, 0.10}, Chi2Case{4.605, 2, 0.10},
                      Chi2Case{124.342, 100, 0.05}));

TEST(ChiSquare, SurvivalAtZeroIsOne) {
  EXPECT_DOUBLE_EQ(chi_square_survival(0.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(chi_square_survival(-3.0, 5.0), 1.0);
}

TEST(ChiSquare, SurvivalDecreasesWithStatistic) {
  double previous = 2.0;
  for (double stat = 0.0; stat < 40.0; stat += 1.0) {
    const double p = chi_square_survival(stat, 6.0);
    EXPECT_LE(p, previous);
    previous = p;
  }
}

TEST(ChiSquare, SurvivalIncreasesWithDf) {
  // For a fixed statistic, more degrees of freedom => larger p-value.
  const double stat = 10.0;
  double previous = 0.0;
  for (double df = 1.0; df <= 30.0; df += 1.0) {
    const double p = chi_square_survival(stat, df);
    EXPECT_GE(p, previous);
    previous = p;
  }
}

TEST(ChiSquare, MedianApproximation) {
  // Median of chi2_k is about k(1 - 2/(9k))^3; survival there ~ 0.5.
  for (double df : {2.0, 5.0, 10.0, 50.0}) {
    const double median = df * std::pow(1.0 - 2.0 / (9.0 * df), 3.0);
    EXPECT_NEAR(chi_square_survival(median, df), 0.5, 0.01) << "df=" << df;
  }
}

TEST(ChiSquare, FiniteSumMatchesIncompleteGamma) {
  // Every integer df the finite sum covers and two past it, at statistics
  // from 1e-6 to 1500: both sides of kChiSquareFiniteSumMaxStatistic.
  std::vector<double> statistics;
  for (double stat = 1e-6; stat < 1500.0; stat *= 1.05) {
    statistics.push_back(stat);
  }
  for (const double stat :
       {kChiSquareFiniteSumMaxStatistic - 0.5, kChiSquareFiniteSumMaxStatistic,
        kChiSquareFiniteSumMaxStatistic + 0.5, 1500.0}) {
    statistics.push_back(stat);
  }
  const int max_df = static_cast<int>(kChiSquareFiniteSumMaxDf) + 2;
  for (int df = 1; df <= max_df; ++df) {
    for (const double stat : statistics) {
      const double expected = regularized_gamma_q(0.5 * df, 0.5 * stat);
      EXPECT_NEAR(chi_square_survival(stat, df), expected, 1e-12 * expected)
          << "stat=" << stat << " df=" << df;
    }
  }
}

TEST(ChiSquare, InvalidDfIsNaN) {
  EXPECT_TRUE(std::isnan(chi_square_survival(1.0, 0.0)));
  EXPECT_TRUE(std::isnan(chi_square_survival(1.0, -2.0)));
}

}  // namespace
}  // namespace fastbns
