#include "stats/gaussian_ci_test.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "stats/special_functions.hpp"

namespace fastbns {
namespace {

/// Pivots below this are treated as singular: the conditioning set
/// determines one of the endpoints (e.g. S contains a copy of X), so the
/// partial correlation is 0/0 and the test answers "independent" — given
/// S the degenerate endpoint carries no remaining information.
constexpr double kSingularPivotEpsilon = 1e-12;

/// In-place Gauss-Jordan inversion with partial pivoting of a k x k
/// row-major matrix. Returns false when a pivot collapses (singular).
/// k = |S| + 2 stays tiny (conditioning sets of PC-stable runs), so the
/// O(k^3) scalar loop is the right tool — no LAPACK, no blocking.
bool invert_in_place(double* a, std::size_t k,
                     std::vector<std::size_t>& pivots) {
  // Row-swap bookkeeping for the in-place variant, recorded to unswap
  // columns at the end; the buffer is caller-owned scratch so deep
  // conditioning sets never overflow a fixed array.
  pivots.assign(2 * k, 0);
  std::size_t* pivot_row = pivots.data();
  std::size_t* pivot_col = pivots.data() + k;
  for (std::size_t step = 0; step < k; ++step) {
    // Largest remaining pivot in the untouched lower-right block.
    std::size_t best = step;
    double best_abs = std::fabs(a[step * k + step]);
    for (std::size_t r = step + 1; r < k; ++r) {
      const double abs = std::fabs(a[r * k + step]);
      if (abs > best_abs) {
        best = r;
        best_abs = abs;
      }
    }
    if (best_abs < kSingularPivotEpsilon) return false;
    if (best != step) {
      for (std::size_t c = 0; c < k; ++c) {
        std::swap(a[best * k + c], a[step * k + c]);
      }
    }
    pivot_row[step] = best;
    pivot_col[step] = step;
    const double inv_pivot = 1.0 / a[step * k + step];
    a[step * k + step] = 1.0;
    for (std::size_t c = 0; c < k; ++c) a[step * k + c] *= inv_pivot;
    for (std::size_t r = 0; r < k; ++r) {
      if (r == step) continue;
      const double factor = a[r * k + step];
      if (factor == 0.0) continue;
      a[r * k + step] = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        a[r * k + c] -= factor * a[step * k + c];
      }
    }
  }
  // Undo the row swaps as column swaps (Gauss-Jordan inverts in place).
  for (std::size_t step = k; step-- > 0;) {
    if (pivot_row[step] != pivot_col[step]) {
      for (std::size_t r = 0; r < k; ++r) {
        std::swap(a[r * k + pivot_row[step]], a[r * k + pivot_col[step]]);
      }
    }
  }
  return true;
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
    if (d == 0) {
      r = stats_->corr(x, y);
    } else {
      // Precision-matrix route: invert the correlation submatrix over
      // [x, y, z...]; the partial correlation of the first two variables
      // given the rest reads off the inverse directly.
      const std::size_t k = static_cast<std::size_t>(d) + 2;
      vars_.clear();
      vars_.push_back(x);
      vars_.push_back(y);
      vars_.insert(vars_.end(), z.begin(), z.end());
      scratch_.resize(k * k);
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < k; ++b) {
          scratch_[a * k + b] = stats_->corr(vars_[a], vars_[b]);
        }
      }
      if (invert_in_place(scratch_.data(), k, pivot_scratch_)) {
        const double pxx = scratch_[0];
        const double pyy = scratch_[k + 1];
        const double pxy = scratch_[1];
        if (pxx > 0.0 && pyy > 0.0) {
          r = -pxy / std::sqrt(pxx * pyy);
        }
      }
      // Singular submatrix (or a non-positive diagonal, which only
      // rounding on a near-singular matrix produces): r stays 0 — the
      // conditioning set already determines an endpoint, so the
      // remaining association is nil.
    }
  }
  if (r > 1.0) r = 1.0;
  if (r < -1.0) r = -1.0;
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

std::unique_ptr<CiTest> make_fisher_z_test(const ContinuousDataset& data,
                                           double alpha) {
  GaussianCiTestOptions options;
  options.alpha = alpha;
  return std::make_unique<GaussianCiTest>(data, options);
}

}  // namespace fastbns
