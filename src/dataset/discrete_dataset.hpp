// Complete-data discrete dataset with selectable memory layout.
//
// The paper's "cache-friendly data storage" optimization (Section IV-C) is
// exactly the column-major (transposed) layout: a CI test on (X, Y, S)
// streams |S|+2 contiguous value arrays instead of striding row-by-row
// across the sample matrix. Both layouts are first-class here so the
// benches can ablate the choice; the layout is fixed at construction.
//
// Invariant: every stored value is below its variable's cardinality, and
// every cardinality is at least 1. It is checked where values enter (the
// constructors and set()), so the counting kernels index cell buffers
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

/// External storage for the construct-over-external-buffer path: value
/// buffers the dataset *views* instead of owning — typically slices of a
/// MAP_SHARED segment (ipc/shared_dataset.hpp) every forked rank maps
/// once. An empty span means "this layout is not materialized
/// externally"; at least one of rows/cols must be non-empty.
struct ExternalDataBuffers {
  std::span<DataValue> rows{};  ///< m*n sample-major values
  /// n * DiscreteDataset::column_stride(m) variable-major values
  std::span<DataValue> cols{};
};

class DiscreteDataset {
 public:
  /// Zero-initialized dataset; fill with set(). Throws
  /// std::invalid_argument when the cardinalities do not number
  /// num_vars or one is below 1.
  DiscreteDataset(VarId num_vars, Count num_samples,
                  std::vector<std::int32_t> cardinalities,
                  DataLayout layout = DataLayout::kColumnMajor);

  /// View over caller-owned buffers (see ExternalDataBuffers): no value
  /// storage is allocated and the buffers must outlive the dataset. set()
  /// writes through. Copies of an external-view dataset share the
  /// external buffers (the spans are copied, not the bytes) — exactly the
  /// semantics the multi-process engine wants for its shared segment.
  /// Throws std::invalid_argument when a non-empty span's size disagrees
  /// with the dimensions or a cardinality is below 1, and
  /// std::out_of_range naming the variable when a buffer holds a value
  /// at or above its cardinality.
  DiscreteDataset(VarId num_vars, Count num_samples,
                  std::vector<std::int32_t> cardinalities,
                  const ExternalDataBuffers& buffers);

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
    return !cols_span().empty();
  }
  [[nodiscard]] bool has_row_major() const noexcept {
    return !rows_span().empty();
  }

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
  // Active-buffer selection: owned storage when materialized, the
  // external view otherwise (a dataset has one or the other: the
  // external constructor allocates nothing). Keeping owned vectors and
  // external spans in *separate* members keeps the default copy/move
  // special members correct: vectors deep-copy, spans share, and neither
  // ever points into the other.
  [[nodiscard]] std::span<const DataValue> rows_span() const noexcept {
    return rows_.empty() ? std::span<const DataValue>(ext_.rows) : rows_;
  }
  [[nodiscard]] std::span<const DataValue> cols_span() const noexcept {
    return cols_.empty() ? std::span<const DataValue>(ext_.cols) : cols_;
  }
  [[nodiscard]] std::span<DataValue> rows_span_mut() noexcept {
    return rows_.empty() ? ext_.rows : std::span<DataValue>(rows_);
  }
  [[nodiscard]] std::span<DataValue> cols_span_mut() noexcept {
    return cols_.empty() ? ext_.cols : std::span<DataValue>(cols_);
  }

  VarId num_vars_;
  Count num_samples_;
  std::vector<std::int32_t> cardinalities_;
  DataLayout layout_;
  std::size_t column_stride_;    ///< column_stride(num_samples_)
  std::vector<DataValue> rows_;  ///< m*n when materialized (owned)
  std::vector<DataValue> cols_;  ///< n*column_stride_ when materialized
  ExternalDataBuffers ext_;      ///< caller-owned views (shm segments)
};

}  // namespace fastbns
