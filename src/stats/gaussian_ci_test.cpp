#include "stats/gaussian_ci_test.hpp"

#include <cmath>
#include <utility>

#include "stats/special_functions.hpp"

namespace fastbns {
namespace {

/// Pivots and residual variances below this are treated as singular: S is
/// collinear, or it determines one of the endpoints (e.g. S contains a
/// copy of X), so the partial correlation is 0/0 and the test answers
/// "independent" — given S the degenerate endpoint carries no remaining
/// information.
constexpr double kSingularPivotEpsilon = 1e-12;

/// Partial correlation of x and y given z (|z| >= 1) as a Schur
/// complement of the unit-diagonal correlation matrix: factor
/// R_zz = L L^T, forward-solve u = L^-1 r_zx and v = L^-1 r_zy, then
///
///   r = (r_xy - u.v) / sqrt((1 - u.u) (1 - v.v)).
///
/// Rows 0..d-1 of `factor` (d x d, row-major) hold L; rows d and d+1 hold
/// u and v, which the same row loop produces, since forward substitution
/// against L is the off-diagonal step of one more Cholesky row. Diagonal
/// slots hold 1 / L_jj, the only form the diagonal is used in. A pivot of
/// R_zz or a residual variance 1 - u.u, 1 - v.v below
/// kSingularPivotEpsilon gives 0: S is (numerically) collinear or
/// determines an endpoint. d stays tiny in PC-stable runs, so the O(d^3)
/// scalar loop is the right tool — no LAPACK, no blocking.
double partial_correlation(const CorrelationMatrix& stats, VarId x, VarId y,
                           std::span<const VarId> z,
                           std::vector<double>& factor) {
  const std::size_t d = z.size();
  factor.resize((d + 2) * d);
  for (std::size_t row = 0; row < d + 2; ++row) {
    const VarId var = row < d ? z[row] : (row == d ? x : y);
    double* l_row = factor.data() + row * d;
    const std::size_t width = row < d ? row : d;
    for (std::size_t col = 0; col < width; ++col) {
      const double* l_col = factor.data() + col * d;
      double sum = stats.corr(var, z[col]);
      for (std::size_t k = 0; k < col; ++k) sum -= l_row[k] * l_col[k];
      l_row[col] = sum * l_col[col];
    }
    if (row < d) {
      double pivot = 1.0;
      for (std::size_t k = 0; k < row; ++k) pivot -= l_row[k] * l_row[k];
      if (pivot < kSingularPivotEpsilon) return 0.0;
      l_row[row] = 1.0 / std::sqrt(pivot);
    }
  }
  const double* u = factor.data() + d * d;
  const double* v = u + d;
  double uu = 0.0;
  double vv = 0.0;
  double uv = 0.0;
  for (std::size_t k = 0; k < d; ++k) {
    uu += u[k] * u[k];
    vv += v[k] * v[k];
    uv += u[k] * v[k];
  }
  const double x_residual = 1.0 - uu;
  const double y_residual = 1.0 - vv;
  if (x_residual < kSingularPivotEpsilon ||
      y_residual < kSingularPivotEpsilon) {
    return 0.0;
  }
  return (stats.corr(x, y) - uv) / std::sqrt(x_residual * y_residual);
}

}  // namespace

GaussianCiTest::GaussianCiTest(const ContinuousDataset& data,
                               GaussianCiTestOptions options)
    // Aliasing shared_ptr: borrow without ownership, mirroring the
    // reference semantics of DiscreteCiTest's data pointer.
    : GaussianCiTest(std::shared_ptr<const ContinuousDataset>(
                         std::shared_ptr<const ContinuousDataset>{}, &data),
                     std::move(options)) {}

GaussianCiTest::GaussianCiTest(std::shared_ptr<const ContinuousDataset> data,
                               GaussianCiTestOptions options)
    : data_(std::move(data)), options_(std::move(options)) {
  // The whole data pass happens here, once, pre-fork and pre-clone:
  // make_covariance_builder also validates the builder name (throws the
  // known-builders message), matching DiscreteCiTest's constructor.
  const std::unique_ptr<CovarianceBuilder> builder =
      make_covariance_builder(options_.covariance_builder);
  stats_ = std::make_shared<const CorrelationMatrix>(builder->build(*data_));
}

CiResult GaussianCiTest::test(VarId x, VarId y, std::span<const VarId> z) {
  ++tests_performed_;
  const auto d = static_cast<std::int64_t>(z.size());
  const std::int64_t fisher_df = stats_->num_samples - d - 3;
  if (fisher_df <= 0) {
    // Not enough samples to test at this depth: keep the edge, the same
    // conservative skip convention as an oversized contingency table.
    return CiResult{0.0, 0.0, -1, /*independent=*/false};
  }
  double r = 0.0;
  if (!stats_->is_degenerate(x) && !stats_->is_degenerate(y)) {
    r = d == 0 ? stats_->corr(x, y)
               : partial_correlation(*stats_, x, y, z, scratch_);
  }
  // Clamp inside the open interval so atanh stays finite; at |r| this
  // close to 1 the decision is "dependent" at any practical alpha anyway.
  constexpr double kMaxAbsR = 1.0 - 1e-12;
  if (r > kMaxAbsR) r = kMaxAbsR;
  if (r < -kMaxAbsR) r = -kMaxAbsR;

  const double statistic =
      std::sqrt(static_cast<double>(fisher_df)) * std::fabs(std::atanh(r));
  const double p_value = 2.0 * standard_normal_survival(statistic);
  return CiResult{statistic, p_value, fisher_df, p_value > options_.alpha};
}

std::unique_ptr<CiTest> GaussianCiTest::clone() const {
  // Copy shares data_ and stats_ (shared_ptr) and duplicates only the
  // tiny scratch buffers; the counter starts fresh per instance.
  auto copy = std::unique_ptr<GaussianCiTest>(new GaussianCiTest(*this));
  copy->reset_counter();
  return copy;
}

std::uint64_t GaussianCiTest::config_token() const noexcept {
  // FNV-1a over every clone-visible knob, same idiom as DiscreteCiTest:
  // the data source, alpha, and the covariance builder choice.
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const void* bytes, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ULL;
    }
  };
  const ContinuousDataset* data = data_.get();
  mix(&data, sizeof(data));
  mix(&options_.alpha, sizeof(options_.alpha));
  mix(options_.covariance_builder.data(), options_.covariance_builder.size());
  const VarId n = data_->num_vars();
  const Count m = data_->num_samples();
  mix(&n, sizeof(n));
  mix(&m, sizeof(m));
  return hash;
}

}  // namespace fastbns
