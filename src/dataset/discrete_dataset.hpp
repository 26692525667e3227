// Complete-data discrete dataset with selectable memory layout.
//
// The paper's "cache-friendly data storage" optimization (Section IV-C) is
// exactly the column-major (transposed) layout: a CI test on (X, Y, S)
// streams |S|+2 contiguous value arrays instead of striding row-by-row
// across the sample matrix. Both layouts are first-class here so the
// benches can ablate the choice; the layout is fixed at construction.
//
// Invariant: every stored value is below its variable's cardinality, and
// every cardinality is at least 1. The constructor rejects a cardinality
// below 1 and zero-fills the buffers, and set() rejects a value at or
// above its cardinality, so the counting kernels index cell buffers
// straight from the stored bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"

namespace fastbns {

enum class DataLayout : std::uint8_t {
  kRowMajor,     ///< sample-contiguous: value(s, v) = rows[s * n + v]
  kColumnMajor,  ///< variable-contiguous: value(s, v) = cols[v * stride + s]
  kBoth,         ///< keep both copies (layout ablation benches)
};

class DiscreteDataset {
 public:
  /// Zero-initialized dataset; fill with set(). Throws
  /// std::invalid_argument when the cardinalities do not number
  /// num_vars or one is below 1.
  DiscreteDataset(VarId num_vars, Count num_samples,
                  std::vector<std::int32_t> cardinalities,
                  DataLayout layout = DataLayout::kColumnMajor);

  [[nodiscard]] VarId num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] Count num_samples() const noexcept { return num_samples_; }
  [[nodiscard]] std::int32_t cardinality(VarId v) const noexcept {
    return cardinalities_[v];
  }
  [[nodiscard]] const std::vector<std::int32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }
  [[nodiscard]] DataLayout layout() const noexcept { return layout_; }
  [[nodiscard]] bool has_column_major() const noexcept {
    return !cols_.empty();
  }
  [[nodiscard]] bool has_row_major() const noexcept { return !rows_.empty(); }

  /// Writes to every materialized layout. Throws std::out_of_range,
  /// naming the sample, variable, value and cardinality, when `value` is
  /// not below the variable's cardinality; nothing is written then.
  void set(Count sample, VarId var, DataValue value);

  [[nodiscard]] DataValue value(Count sample, VarId var) const noexcept;

  /// Column-major buffers start each variable's column at a multiple of
  /// this many samples, so every column starts at the same offset within
  /// a 64-byte cache line rather than wherever the previous one ended.
  /// The padding is zero and is never counted.
  static constexpr std::size_t kColumnPad = 64;

  /// Samples between the starts of consecutive columns: `num_samples`
  /// rounded up to kColumnPad.
  [[nodiscard]] static std::size_t column_stride(Count num_samples) noexcept {
    return (static_cast<std::size_t>(num_samples) + kColumnPad - 1) /
           kColumnPad * kColumnPad;
  }

  /// Contiguous per-variable values (num_samples of them); requires a
  /// column-major buffer. This is the byte stream the counting kernels
  /// read.
  [[nodiscard]] std::span<const DataValue> column(VarId var) const;

  /// The whole column-major buffer, padding included:
  /// num_vars * column_stride(num_samples) values. Requires a
  /// column-major buffer.
  [[nodiscard]] std::span<const DataValue> column_block() const;

  /// Contiguous per-sample values; requires a row-major buffer.
  [[nodiscard]] std::span<const DataValue> row(Count sample) const;

  /// Restriction to the first `count` samples (for sample-size sweeps,
  /// e.g. Figure 3's 5k/10k/15k grid drawn from one 15k dataset).
  [[nodiscard]] DiscreteDataset head(Count count) const;

 private:
  VarId num_vars_;
  Count num_samples_;
  std::vector<std::int32_t> cardinalities_;
  DataLayout layout_;
  std::size_t column_stride_;    ///< column_stride(num_samples_)
  std::vector<DataValue> rows_;  ///< m*n when materialized
  std::vector<DataValue> cols_;  ///< n*column_stride_ when materialized
};

}  // namespace fastbns
