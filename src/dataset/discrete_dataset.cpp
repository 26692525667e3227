#include "dataset/discrete_dataset.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace fastbns {
namespace {

/// Throws std::invalid_argument unless there is one cardinality per
/// variable and each is at least 1.
void check_cardinalities(const std::vector<std::int32_t>& cardinalities,
                         VarId num_vars) {
  if (static_cast<VarId>(cardinalities.size()) != num_vars) {
    throw std::invalid_argument(
        "DiscreteDataset: cardinalities size must equal num_vars");
  }
  for (VarId v = 0; v < num_vars; ++v) {
    if (cardinalities[v] < 1) {
      throw std::invalid_argument(
          "DiscreteDataset: variable " + std::to_string(v) +
          " has cardinality " + std::to_string(cardinalities[v]) +
          "; every variable needs at least 1 state");
    }
  }
}

}  // namespace

DiscreteDataset::DiscreteDataset(VarId num_vars, Count num_samples,
                                 std::vector<std::int32_t> cardinalities,
                                 DataLayout layout)
    : num_vars_(num_vars),
      num_samples_(num_samples),
      cardinalities_(std::move(cardinalities)),
      layout_(layout),
      column_stride_(column_stride(num_samples)) {
  check_cardinalities(cardinalities_, num_vars);
  const auto n = static_cast<std::size_t>(num_vars);
  if (layout == DataLayout::kRowMajor || layout == DataLayout::kBoth) {
    rows_.assign(n * static_cast<std::size_t>(num_samples), 0);
  }
  if (layout == DataLayout::kColumnMajor || layout == DataLayout::kBoth) {
    cols_.assign(n * column_stride_, 0);
  }
}

DiscreteDataset::DiscreteDataset(VarId num_vars, Count num_samples,
                                 std::vector<std::int32_t> cardinalities,
                                 const ExternalDataBuffers& buffers)
    : num_vars_(num_vars),
      num_samples_(num_samples),
      cardinalities_(std::move(cardinalities)),
      layout_(DataLayout::kColumnMajor),
      column_stride_(column_stride(num_samples)),
      ext_(buffers) {
  check_cardinalities(cardinalities_, num_vars);
  const auto n = static_cast<std::size_t>(num_vars);
  const auto m = static_cast<std::size_t>(num_samples);
  const auto check = [](std::span<const DataValue> buffer,
                        std::size_t expected, const char* which) {
    if (!buffer.empty() && buffer.size() != expected) {
      throw std::invalid_argument(
          "DiscreteDataset: external " + std::string(which) + " buffer has " +
          std::to_string(buffer.size()) + " values, expected " +
          std::to_string(expected));
    }
  };
  check(ext_.rows, n * m, "rows");
  check(ext_.cols, n * column_stride_, "cols");
  if (ext_.rows.empty() && ext_.cols.empty()) {
    throw std::invalid_argument(
        "DiscreteDataset: external buffers must include at least one value "
        "layout (rows and cols are both empty)");
  }
  if (ext_.cols.empty()) {
    layout_ = DataLayout::kRowMajor;
  } else if (!ext_.rows.empty()) {
    layout_ = DataLayout::kBoth;
  }

  // The buffers were written elsewhere, so the value invariant is
  // checked here, once: one max per column over every given layout.
  std::vector<DataValue> max(n, 0);
  if (!ext_.cols.empty()) {
    for (std::size_t v = 0; v < n; ++v) {
      DataValue high = 0;
      for (const DataValue value : column(static_cast<VarId>(v))) {
        high = std::max(high, value);
      }
      max[v] = high;
    }
  }
  if (!ext_.rows.empty()) {
    for (std::size_t s = 0; s < m; ++s) {
      const DataValue* row = ext_.rows.data() + s * n;
      for (std::size_t v = 0; v < n; ++v) max[v] = std::max(max[v], row[v]);
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (max[v] >= cardinalities_[v]) {
      throw std::out_of_range(
          "DiscreteDataset: external buffer holds value " +
          std::to_string(max[v]) + " for variable " + std::to_string(v) +
          ", whose cardinality is " + std::to_string(cardinalities_[v]));
    }
  }
}

void DiscreteDataset::set(Count sample, VarId var, DataValue value) {
  assert(sample >= 0 && sample < num_samples_ && var >= 0 && var < num_vars_);
  if (value >= cardinalities_[var]) {
    throw std::out_of_range(
        "DiscreteDataset::set: value " + std::to_string(value) +
        " at sample " + std::to_string(sample) + " of variable " +
        std::to_string(var) + " is not below its cardinality " +
        std::to_string(cardinalities_[var]));
  }
  const std::span<DataValue> rows = rows_span_mut();
  if (!rows.empty()) {
    rows[static_cast<std::size_t>(sample) * num_vars_ + var] = value;
  }
  const std::span<DataValue> cols = cols_span_mut();
  if (!cols.empty()) {
    cols[static_cast<std::size_t>(var) * column_stride_ + sample] = value;
  }
}

DataValue DiscreteDataset::value(Count sample, VarId var) const noexcept {
  assert(sample >= 0 && sample < num_samples_ && var >= 0 && var < num_vars_);
  const std::span<const DataValue> cols = cols_span();
  if (!cols.empty()) {
    return cols[static_cast<std::size_t>(var) * column_stride_ + sample];
  }
  return rows_span()[static_cast<std::size_t>(sample) * num_vars_ + var];
}

std::span<const DataValue> DiscreteDataset::column(VarId var) const {
  return column_block().subspan(static_cast<std::size_t>(var) * column_stride_,
                                static_cast<std::size_t>(num_samples_));
}

std::span<const DataValue> DiscreteDataset::column_block() const {
  const std::span<const DataValue> cols = cols_span();
  if (cols.empty()) {
    throw std::logic_error("DiscreteDataset::column: no column-major buffer");
  }
  return cols;
}

std::span<const DataValue> DiscreteDataset::row(Count sample) const {
  const std::span<const DataValue> rows = rows_span();
  if (rows.empty()) {
    throw std::logic_error("DiscreteDataset::row: no row-major buffer");
  }
  return rows.subspan(static_cast<std::size_t>(sample) * num_vars_,
                      static_cast<std::size_t>(num_vars_));
}

DiscreteDataset DiscreteDataset::head(Count count) const {
  assert(count <= num_samples_);
  DiscreteDataset result(num_vars_, count, cardinalities_, layout_);
  for (Count s = 0; s < count; ++s) {
    for (VarId v = 0; v < num_vars_; ++v) {
      result.set(s, v, value(s, v));
    }
  }
  return result;
}

}  // namespace fastbns
