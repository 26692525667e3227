// Complete-data continuous dataset: double-precision columns, the
// Gaussian analog of DiscreteDataset's column-major value store.
//
// The Fisher-z CI test never streams these columns per test — it works
// off a correlation matrix computed once — so the store is deliberately
// minimal: column-major only, the access the covariance builders make
// when they stream whole columns.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace fastbns {

class ContinuousDataset {
 public:
  /// Zero-initialized storage; fill with set().
  ContinuousDataset(VarId num_vars, Count num_samples);

  [[nodiscard]] VarId num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] Count num_samples() const noexcept { return num_samples_; }

  void set(Count sample, VarId var, double value) noexcept;
  [[nodiscard]] double value(Count sample, VarId var) const noexcept;

  /// Contiguous per-variable values (m doubles).
  [[nodiscard]] std::span<const double> column(VarId var) const noexcept;

  /// Restriction to the first `count` samples (sample-size sweeps).
  [[nodiscard]] ContinuousDataset head(Count count) const;

 private:
  VarId num_vars_;
  Count num_samples_;
  std::vector<double> cols_;  ///< n*m variable-major values
};

}  // namespace fastbns
