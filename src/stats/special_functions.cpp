#include "stats/special_functions.hpp"

#include <math.h>

#include <cmath>
#include <limits>

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
  return regularized_gamma_q(0.5 * df, 0.5 * statistic);
}

double standard_normal_survival(double x) noexcept {
  // P(|Z| > |x|) = Q(1/2, x^2/2), split evenly between the two tails.
  const double two_sided = regularized_gamma_q(0.5, 0.5 * x * x);
  return x >= 0.0 ? 0.5 * two_sided : 1.0 - 0.5 * two_sided;
}

}  // namespace fastbns
