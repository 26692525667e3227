// Special functions needed for CI-test p-values.
//
// The G^2 statistic is asymptotically chi-square distributed; the p-value
// is the chi-square survival function, i.e. the regularized upper
// incomplete gamma function Q(df/2, G2/2). For the integer df that G^2
// tests produce (up to a cap) Q has an exact finite-sum form in exp and
// erfc; the general incomplete gamma is implemented from scratch (series
// + Lentz continued fraction) — no external math library.
#pragma once

namespace fastbns {

/// log Gamma(x), x > 0.
[[nodiscard]] double log_gamma(double x) noexcept;

/// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
/// a > 0, x >= 0.
[[nodiscard]] double regularized_gamma_p(double a, double x) noexcept;

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
[[nodiscard]] double regularized_gamma_q(double a, double x) noexcept;

/// chi_square_survival's finite sum covers integer df up to the first
/// bound and statistics up to the second (e^(-statistic/2) stays a normal
/// double there); past either it runs the incomplete gamma.
inline constexpr double kChiSquareFiniteSumMaxDf = 128.0;
inline constexpr double kChiSquareFiniteSumMaxStatistic = 1400.0;

/// P(Chi2_df > statistic); df > 0. Returns 1.0 for statistic <= 0. Within
/// 1e-12 relative of regularized_gamma_q(df / 2, statistic / 2).
[[nodiscard]] double chi_square_survival(double statistic, double df) noexcept;

/// P(N(0,1) > x) = erfc(x / sqrt 2) / 2, the standard normal survival
/// function — the Fisher-z test's p-value is
/// 2 * standard_normal_survival(|z|).
[[nodiscard]] double standard_normal_survival(double x) noexcept;

}  // namespace fastbns
