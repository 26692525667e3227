// Covariance sufficient statistics for the Gaussian (Fisher-z) CI test.
//
// The Fisher-z test's entire data dependence is the correlation matrix:
// every partial correlation is a function of the pairwise correlations of
// the |S|+2 variables involved. So the data pass happens exactly once —
// one builder invocation turns n double columns into an n x n correlation
// matrix — and the per-test work is a small Cholesky factor of the
// conditioning block. This is the continuous analog of the TableBuilder
// split: the builder is the counting pass, the CorrelationMatrix is the
// sufficient statistic, and the statistic layer (gaussian_ci_test.cpp)
// never touches raw data.
//
// Two builders:
//  * "scalar": one pair at a time, straight accumulation loop — the
//    obviously-correct baseline the blocked variant is tested against;
//  * "blocked": 8-column tiles over 2,048-sample blocks, with OpenMP
//    parallelism *across* tiles. Each (i, j) entry is accumulated by
//    exactly one thread: a partial restarts at 0.0 per block, multiplies
//    then adds in ascending sample order, and joins the entry in
//    ascending block order, so the result is bit-identical at every
//    thread count — the determinism contract the differential fuzz
//    harness pins. On the AVX2 dispatch tier (stats/simd_dispatch.hpp) an
//    AVX2 kernel keeps that order with one SIMD lane per (i, j) entry;
//    below it, and off x86-64, a loop runs one entry at a time. Both give
//    the same bits. ("scalar" and "blocked" may differ from each other in
//    final ulps; a run's builder choice is part of config_token(), so
//    mixed-builder comparisons never happen silently.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "dataset/continuous_dataset.hpp"

namespace fastbns {

/// Correlation sufficient statistic: unit-diagonal n x n matrix plus the
/// per-variable degeneracy mask (a ~constant column has no defined
/// correlation; its entries are 0 and tests involving it answer
/// "independent" — the conservative continuous analog of an empty
/// contingency stratum).
struct CorrelationMatrix {
  VarId num_vars = 0;
  Count num_samples = 0;
  std::vector<double> correlation;      ///< n*n, row-major, symmetric
  std::vector<std::uint8_t> degenerate; ///< 1 when var's variance ~ 0

  [[nodiscard]] double corr(VarId i, VarId j) const noexcept {
    return correlation[static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(num_vars) +
                       static_cast<std::size_t>(j)];
  }
  [[nodiscard]] bool is_degenerate(VarId v) const noexcept {
    return degenerate[static_cast<std::size_t>(v)] != 0;
  }
};

/// One-pass correlation builder: raw moments (sum x, sum x*y) accumulated
/// in a single stream over the column store, normalized at the end.
class CovarianceBuilder {
 public:
  virtual ~CovarianceBuilder() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual CorrelationMatrix build(
      const ContinuousDataset& data) const = 0;
};

/// Builder by name: "scalar", "blocked", or "auto" (= blocked, the
/// production default). Throws std::invalid_argument naming the offending
/// value and listing the known builders.
[[nodiscard]] std::unique_ptr<CovarianceBuilder> make_covariance_builder(
    const std::string& name);

/// Known builder names, "auto" included — the CLI/validate() vocabulary.
[[nodiscard]] std::vector<std::string> list_covariance_builders();

/// Variances below this (relative to the mean square) mark a variable
/// degenerate: correlations with a constant column are 0/0.
inline constexpr double kDegenerateVarianceEpsilon = 1e-12;

}  // namespace fastbns
