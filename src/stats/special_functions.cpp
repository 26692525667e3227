#include "stats/special_functions.hpp"

#include <math.h>

#include <cmath>
#include <limits>
#include <numbers>

namespace fastbns {
namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

/// Series expansion of P(a, x); converges fast for x < a + 1.
double gamma_p_series(double a, double x) noexcept {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

/// Lentz's continued fraction for Q(a, x); converges fast for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) noexcept {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

}  // namespace

// lgamma_r, not std::lgamma: std::lgamma also stores the sign of
// Gamma(x) in glibc's global signgam, so concurrent CI tests would race on
// that int. lgamma_r returns the sign through `sign` and computes the
// same value.
double log_gamma(double x) noexcept {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

double regularized_gamma_p(double a, double x) noexcept {
  if (x <= 0.0) return 0.0;
  if (!(a > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double regularized_gamma_q(double a, double x) noexcept {
  if (x <= 0.0) return 1.0;
  if (!(a > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_continued_fraction(a, x);
}

double chi_square_survival(double statistic, double df) noexcept {
  if (statistic <= 0.0) return 1.0;
  if (!(df > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  const double h = 0.5 * statistic;
  if (df > kChiSquareFiniteSumMaxDf ||
      statistic > kChiSquareFiniteSumMaxStatistic || df != std::floor(df)) {
    return regularized_gamma_q(0.5 * df, h);
  }
  // Integer df: Q(df/2, h) is a finite sum. Each term is the one before
  // times h / (j + offset), and every term is positive, so nothing cancels.
  //   even df: e^-h sum_{j < df/2} h^j / j!
  //   odd df:  erfc(sqrt h) + e^-h sum_{j < (df-1)/2} h^(j+1/2) / G(j+3/2)
  const auto k = static_cast<int>(df);
  const int terms = k / 2;
  double tail = 0.0;
  double term = 1.0;  // h^0 / 0!
  double offset = 0.0;
  if (k % 2 == 1) {
    const double root_h = std::sqrt(h);
    tail = std::erfc(root_h);
    term = 2.0 * std::numbers::inv_sqrtpi * root_h;  // h^(1/2) / G(3/2)
    offset = 0.5;
  }
  double sum = terms > 0 ? term : 0.0;
  for (int j = 1; j < terms; ++j) {
    term *= h / (j + offset);
    sum += term;
  }
  return tail + std::exp(-h) * sum;
}

double standard_normal_survival(double x) noexcept {
  return 0.5 * std::erfc(x / std::numbers::sqrt2);
}

}  // namespace fastbns
