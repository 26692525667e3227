#include "dataset/continuous_dataset.hpp"

#include <stdexcept>
#include <string>

namespace fastbns {

ContinuousDataset::ContinuousDataset(VarId num_vars, Count num_samples)
    : num_vars_(num_vars),
      num_samples_(num_samples),
      cols_(static_cast<std::size_t>(num_vars) *
            static_cast<std::size_t>(num_samples)) {}

ContinuousDataset::ContinuousDataset(VarId num_vars, Count num_samples,
                                     const ExternalContinuousBuffers& buffers)
    : num_vars_(num_vars), num_samples_(num_samples), ext_(buffers) {
  const std::size_t expected = static_cast<std::size_t>(num_vars) *
                               static_cast<std::size_t>(num_samples);
  if (buffers.cols.size() != expected) {
    throw std::invalid_argument(
        "ContinuousDataset: external cols buffer holds " +
        std::to_string(buffers.cols.size()) + " doubles, expected " +
        std::to_string(expected));
  }
}

void ContinuousDataset::set(Count sample, VarId var, double value) noexcept {
  cols_span_mut()[static_cast<std::size_t>(var) *
                      static_cast<std::size_t>(num_samples_) +
                  static_cast<std::size_t>(sample)] = value;
}

double ContinuousDataset::value(Count sample, VarId var) const noexcept {
  return cols_span()[static_cast<std::size_t>(var) *
                         static_cast<std::size_t>(num_samples_) +
                     static_cast<std::size_t>(sample)];
}

std::span<const double> ContinuousDataset::column(VarId var) const noexcept {
  return cols_span().subspan(static_cast<std::size_t>(var) *
                                 static_cast<std::size_t>(num_samples_),
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
