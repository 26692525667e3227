#include "dataset/discrete_dataset.hpp"

#include <cassert>

namespace fastbns {

DiscreteDataset::DiscreteDataset(VarId num_vars, Count num_samples,
                                 std::vector<std::int32_t> cardinalities,
                                 DataLayout layout)
    : num_vars_(num_vars),
      num_samples_(num_samples),
      cardinalities_(std::move(cardinalities)),
      layout_(layout) {
  if (static_cast<VarId>(cardinalities_.size()) != num_vars) {
    throw std::invalid_argument(
        "DiscreteDataset: cardinalities size must equal num_vars");
  }
  const auto total =
      static_cast<std::size_t>(num_vars) * static_cast<std::size_t>(num_samples);
  if (layout == DataLayout::kRowMajor || layout == DataLayout::kBoth) {
    rows_.assign(total, 0);
  }
  if (layout == DataLayout::kColumnMajor || layout == DataLayout::kBoth) {
    cols_.assign(total, 0);
  }
  codes8_stride_ = (static_cast<std::size_t>(num_samples) + kCodes8Pad - 1) /
                   kCodes8Pad * kCodes8Pad;
  // The packed mirror exists for the column-streaming kernels; a
  // row-major-only dataset (the cache-unfriendly ablation path) never
  // reads it, so don't double its memory.
  if (!cols_.empty()) {
    codes8_.assign(static_cast<std::size_t>(num_vars) * codes8_stride_, 0);
  }
}

DiscreteDataset::DiscreteDataset(VarId num_vars, Count num_samples,
                                 std::vector<std::int32_t> cardinalities,
                                 const ExternalDataBuffers& buffers)
    : num_vars_(num_vars),
      num_samples_(num_samples),
      cardinalities_(std::move(cardinalities)),
      layout_(DataLayout::kColumnMajor),
      ext_(buffers) {
  if (static_cast<VarId>(cardinalities_.size()) != num_vars) {
    throw std::invalid_argument(
        "DiscreteDataset: cardinalities size must equal num_vars");
  }
  codes8_stride_ = (static_cast<std::size_t>(num_samples) + kCodes8Pad - 1) /
                   kCodes8Pad * kCodes8Pad;
  const auto total =
      static_cast<std::size_t>(num_vars) * static_cast<std::size_t>(num_samples);
  const auto check = []<typename T>(std::span<const T> buffer,
                                    std::size_t expected, const char* which) {
    if (!buffer.empty() && buffer.size() != expected) {
      throw std::invalid_argument(
          "DiscreteDataset: external " + std::string(which) + " buffer has " +
          std::to_string(buffer.size()) + " values, expected " +
          std::to_string(expected));
    }
  };
  check(std::span<const DataValue>(ext_.rows), total, "rows");
  check(std::span<const DataValue>(ext_.cols), total, "cols");
  check(std::span<const std::uint8_t>(ext_.codes8),
        static_cast<std::size_t>(num_vars) * codes8_stride_, "codes8");
  if (ext_.rows.empty() && ext_.cols.empty()) {
    throw std::invalid_argument(
        "DiscreteDataset: external buffers must include at least one value "
        "layout (rows and cols are both empty)");
  }
  if (!ext_.codes8.empty() && ext_.cols.empty()) {
    throw std::invalid_argument(
        "DiscreteDataset: an external codes8 mirror requires the "
        "column-major buffer it mirrors");
  }
  if (ext_.cols.empty()) {
    layout_ = DataLayout::kRowMajor;
  } else if (!ext_.rows.empty()) {
    layout_ = DataLayout::kBoth;
  }
}

void DiscreteDataset::set(Count sample, VarId var, DataValue value) noexcept {
  assert(sample >= 0 && sample < num_samples_ && var >= 0 && var < num_vars_);
  const std::span<DataValue> rows = rows_span_mut();
  if (!rows.empty()) {
    rows[static_cast<std::size_t>(sample) * num_vars_ + var] = value;
  }
  const std::span<DataValue> cols = cols_span_mut();
  if (!cols.empty()) {
    cols[static_cast<std::size_t>(var) * num_samples_ + sample] = value;
  }
  if (has_codes8(var)) {
    const std::int32_t card = cardinalities_[var];
    const auto clamped =
        value >= card ? static_cast<std::uint8_t>(card - 1) : value;
    codes8_span_mut()[static_cast<std::size_t>(var) * codes8_stride_ + sample] =
        clamped;
  }
}

DataValue DiscreteDataset::value(Count sample, VarId var) const noexcept {
  assert(sample >= 0 && sample < num_samples_ && var >= 0 && var < num_vars_);
  const std::span<const DataValue> cols = cols_span();
  if (!cols.empty()) {
    return cols[static_cast<std::size_t>(var) * num_samples_ + sample];
  }
  return rows_span()[static_cast<std::size_t>(sample) * num_vars_ + var];
}

std::span<const DataValue> DiscreteDataset::column(VarId var) const {
  const std::span<const DataValue> cols = cols_span();
  if (cols.empty()) {
    throw std::logic_error("DiscreteDataset::column: no column-major buffer");
  }
  return cols.subspan(static_cast<std::size_t>(var) * num_samples_,
                      static_cast<std::size_t>(num_samples_));
}

std::span<const DataValue> DiscreteDataset::row(Count sample) const {
  const std::span<const DataValue> rows = rows_span();
  if (rows.empty()) {
    throw std::logic_error("DiscreteDataset::row: no row-major buffer");
  }
  return rows.subspan(static_cast<std::size_t>(sample) * num_vars_,
                      static_cast<std::size_t>(num_vars_));
}

bool DiscreteDataset::values_in_range() const noexcept {
  for (VarId v = 0; v < num_vars_; ++v) {
    for (Count s = 0; s < num_samples_; ++s) {
      if (value(s, v) >= cardinalities_[v]) return false;
    }
  }
  return true;
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
