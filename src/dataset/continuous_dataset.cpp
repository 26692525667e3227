#include "dataset/continuous_dataset.hpp"

namespace fastbns {

ContinuousDataset::ContinuousDataset(VarId num_vars, Count num_samples)
    : num_vars_(num_vars),
      num_samples_(num_samples),
      cols_(static_cast<std::size_t>(num_vars) *
            static_cast<std::size_t>(num_samples)) {}

void ContinuousDataset::set(Count sample, VarId var, double value) noexcept {
  cols_[static_cast<std::size_t>(var) * static_cast<std::size_t>(num_samples_) +
        static_cast<std::size_t>(sample)] = value;
}

double ContinuousDataset::value(Count sample, VarId var) const noexcept {
  return cols_[static_cast<std::size_t>(var) *
                   static_cast<std::size_t>(num_samples_) +
               static_cast<std::size_t>(sample)];
}

std::span<const double> ContinuousDataset::column(VarId var) const noexcept {
  return std::span<const double>(cols_).subspan(
      static_cast<std::size_t>(var) * static_cast<std::size_t>(num_samples_),
      static_cast<std::size_t>(num_samples_));
}

ContinuousDataset ContinuousDataset::head(Count count) const {
  ContinuousDataset prefix(num_vars_, count);
  for (VarId v = 0; v < num_vars_; ++v) {
    for (Count s = 0; s < count; ++s) prefix.set(s, v, value(s, v));
  }
  return prefix;
}

}  // namespace fastbns
