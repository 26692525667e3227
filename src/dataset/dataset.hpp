// Runtime-kinded dataset: the statistic-agnostic handle the pc/engine
// stack passes around so the CI test — not the pipeline — decides what
// kind of data it needs.
//
// A Dataset holds exactly one of a DiscreteDataset (byte-coded values,
// the G^2 family) or a ContinuousDataset (double columns, the Fisher-z
// family) behind shared_ptr storage. Two construction modes:
//  * owning: the dataset is moved in and the Dataset (plus its copies)
//    keeps it alive — what loaders and samplers return;
//  * borrow(): a zero-copy view over a caller-owned dataset (aliasing
//    shared_ptr, no control block) — what the DiscreteDataset overloads
//    of learn_structure use so existing callers pay nothing.
// Copies are shallow either way. Nothing writes a dataset after it is
// built, so the process engine's forked ranks read its buffers through
// the copy-on-write pages they inherit, without a copy.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "dataset/continuous_dataset.hpp"
#include "dataset/discrete_dataset.hpp"

namespace fastbns {

enum class DatasetKind : std::uint8_t {
  kDiscrete,    ///< byte-coded complete data (DiscreteDataset)
  kContinuous,  ///< double columns (ContinuousDataset)
};

/// "discrete" / "continuous" — the names CI-test resolution messages use.
[[nodiscard]] std::string_view to_string(DatasetKind kind);

class Dataset {
 public:
  /// Owning: moves the dataset behind shared storage.
  Dataset(DiscreteDataset data);     // NOLINT(google-explicit-constructor)
  Dataset(ContinuousDataset data);   // NOLINT(google-explicit-constructor)

  /// Zero-copy view over a caller-owned dataset; `data` must outlive the
  /// Dataset and every copy of it.
  [[nodiscard]] static Dataset borrow(const DiscreteDataset& data);
  [[nodiscard]] static Dataset borrow(const ContinuousDataset& data);

  [[nodiscard]] DatasetKind kind() const noexcept {
    return discrete_ != nullptr ? DatasetKind::kDiscrete
                                : DatasetKind::kContinuous;
  }
  [[nodiscard]] bool is_discrete() const noexcept {
    return discrete_ != nullptr;
  }
  [[nodiscard]] bool is_continuous() const noexcept {
    return continuous_ != nullptr;
  }

  /// Kind-checked accessors; throw std::logic_error naming the actual
  /// kind when the wrong one is requested.
  [[nodiscard]] const DiscreteDataset& discrete() const;
  [[nodiscard]] const ContinuousDataset& continuous() const;

  /// Shared handle, for tests that outlive the Dataset object (the
  /// Gaussian test keeps the continuous store alive through one).
  [[nodiscard]] std::shared_ptr<const ContinuousDataset> continuous_ptr()
      const noexcept {
    return continuous_;
  }

  [[nodiscard]] VarId num_vars() const noexcept;
  [[nodiscard]] Count num_samples() const noexcept;

 private:
  Dataset() = default;

  // Exactly one is non-null.
  std::shared_ptr<const DiscreteDataset> discrete_;
  std::shared_ptr<const ContinuousDataset> continuous_;
};

}  // namespace fastbns
