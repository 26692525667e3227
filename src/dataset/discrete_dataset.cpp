#include "dataset/discrete_dataset.hpp"

#include <cassert>
#include <string>
#include <utility>

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

void DiscreteDataset::set(Count sample, VarId var, DataValue value) {
  assert(sample >= 0 && sample < num_samples_ && var >= 0 && var < num_vars_);
  if (value >= cardinalities_[var]) {
    throw std::out_of_range(
        "DiscreteDataset::set: value " + std::to_string(value) +
        " at sample " + std::to_string(sample) + " of variable " +
        std::to_string(var) + " is not below its cardinality " +
        std::to_string(cardinalities_[var]));
  }
  if (!rows_.empty()) {
    rows_[static_cast<std::size_t>(sample) * num_vars_ + var] = value;
  }
  if (!cols_.empty()) {
    cols_[static_cast<std::size_t>(var) * column_stride_ + sample] = value;
  }
}

DataValue DiscreteDataset::value(Count sample, VarId var) const noexcept {
  assert(sample >= 0 && sample < num_samples_ && var >= 0 && var < num_vars_);
  if (!cols_.empty()) {
    return cols_[static_cast<std::size_t>(var) * column_stride_ + sample];
  }
  return rows_[static_cast<std::size_t>(sample) * num_vars_ + var];
}

std::span<const DataValue> DiscreteDataset::column(VarId var) const {
  return column_block().subspan(static_cast<std::size_t>(var) * column_stride_,
                                static_cast<std::size_t>(num_samples_));
}

std::span<const DataValue> DiscreteDataset::column_block() const {
  if (cols_.empty()) {
    throw std::logic_error("DiscreteDataset::column: no column-major buffer");
  }
  return cols_;
}

std::span<const DataValue> DiscreteDataset::row(Count sample) const {
  if (rows_.empty()) {
    throw std::logic_error("DiscreteDataset::row: no row-major buffer");
  }
  return std::span<const DataValue>(rows_).subspan(
      static_cast<std::size_t>(sample) * num_vars_,
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
