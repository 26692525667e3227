// MAP_SHARED dataset segment for the multi-process engine.
//
// fork() already shares read-only pages copy-on-write, but COW sharing is
// fragile (any stray write duplicates a page per rank). A
// SharedDatasetSegment makes the sharing explicit: one anonymous
// MAP_SHARED mapping, created before the ranks fork, holding the
// dataset's buffers. Every rank inherits the same mapping at the same
// address — the dataset is mapped exactly once machine-wide, zero copies
// per rank.
//
// The segment is statistic-agnostic: a discrete source lays out one block
// per materialized layout (its padded column-major values, its row-major
// values); a continuous source lays out one doubles block. The
// segment exposes a Dataset view over the external buffers (the
// construct-over-external-buffer paths of dataset/discrete_dataset.hpp
// and dataset/continuous_dataset.hpp), so CI tests built over the view
// stream shm pages through the exact code paths they stream heap pages.
#pragma once

#include <cstddef>

#include "dataset/dataset.hpp"

namespace fastbns {

/// Anonymous MAP_SHARED memory, zero-initialized; move-only RAII.
class SharedMemoryRegion {
 public:
  SharedMemoryRegion() = default;
  ~SharedMemoryRegion();
  SharedMemoryRegion(SharedMemoryRegion&& other) noexcept;
  SharedMemoryRegion& operator=(SharedMemoryRegion&& other) noexcept;
  SharedMemoryRegion(const SharedMemoryRegion&) = delete;
  SharedMemoryRegion& operator=(const SharedMemoryRegion&) = delete;

  /// Throws std::runtime_error when mmap fails. size 0 yields empty().
  [[nodiscard]] static SharedMemoryRegion create(std::size_t size);

  [[nodiscard]] std::byte* data() const noexcept {
    return static_cast<std::byte*>(data_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return data_ == nullptr; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// A dataset copied once into a SharedMemoryRegion, plus a Dataset view
/// whose buffers live entirely in that region. Create it *before*
/// forking ranks; the view (and the segment object itself, through the
/// parent's COW heap) is then valid in every rank.
class SharedDatasetSegment {
 public:
  /// Copies `source`'s materialized buffers into one shared region — a
  /// discrete source's column and row blocks, or a continuous source's
  /// doubles block. A discrete source must have at least one value
  /// layout (it always does by construction).
  [[nodiscard]] static SharedDatasetSegment create(const Dataset& source);
  [[nodiscard]] static SharedDatasetSegment create(
      const DiscreteDataset& source);
  [[nodiscard]] static SharedDatasetSegment create(
      const ContinuousDataset& source);

  /// The kind-agnostic view. The underlying dataset objects live behind
  /// shared_ptr storage, so the view stays address-stable across segment
  /// moves (engines hold CI tests pointing at it).
  [[nodiscard]] const Dataset& dataset() const noexcept { return view_; }
  /// Discrete-view shorthand for callers that know their source kind
  /// (throws std::logic_error on a continuous segment, like
  /// Dataset::discrete()).
  [[nodiscard]] const DiscreteDataset& view() const { return view_.discrete(); }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return region_.size();
  }

 private:
  SharedDatasetSegment() : view_(DiscreteDataset(0, 0, {})) {}

  SharedMemoryRegion region_;
  Dataset view_;
};

}  // namespace fastbns
