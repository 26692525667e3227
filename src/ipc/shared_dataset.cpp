#include "ipc/shared_dataset.hpp"

#include <sys/mman.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace fastbns {
namespace {

/// Cache-line alignment for every buffer inside the segment, matching
/// the alignment a fresh std::vector allocation effectively gets, so the
/// padded columns start where they do on the heap.
constexpr std::size_t kSegmentAlign = 64;

std::size_t align_up(std::size_t size) noexcept {
  return (size + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
}

}  // namespace

SharedMemoryRegion::~SharedMemoryRegion() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

SharedMemoryRegion::SharedMemoryRegion(SharedMemoryRegion&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

SharedMemoryRegion& SharedMemoryRegion::operator=(
    SharedMemoryRegion&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

SharedMemoryRegion SharedMemoryRegion::create(std::size_t size) {
  SharedMemoryRegion region;
  if (size == 0) return region;
  // Anonymous (no backing file to clean up or leak a name for) and
  // MAP_SHARED: every process forked after this call sees the same
  // physical pages at the same address. Zero-initialized by the kernel.
  void* data = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) {
    throw std::runtime_error(
        "SharedMemoryRegion: mmap of " + std::to_string(size) +
        " bytes failed");
  }
  region.data_ = data;
  region.size_ = size;
  return region;
}

SharedDatasetSegment SharedDatasetSegment::create(const Dataset& source) {
  return source.is_discrete() ? create(source.discrete())
                              : create(source.continuous());
}

SharedDatasetSegment SharedDatasetSegment::create(
    const DiscreteDataset& source) {
  const bool with_cols = source.has_column_major();
  const bool with_rows = source.has_row_major();
  if (!with_cols && !with_rows) {
    throw std::invalid_argument(
        "SharedDatasetSegment: source dataset has no materialized layout");
  }
  const auto n = static_cast<std::size_t>(source.num_vars());
  const auto m = static_cast<std::size_t>(source.num_samples());
  // Segment layout (each buffer 64-byte aligned, a buffer only when the
  // source materialized that layout):
  //   [ column-major values  n*stride ][ rows m*n ]
  const std::span<const DataValue> block =
      with_cols ? source.column_block() : std::span<const DataValue>{};
  const std::size_t cols_bytes = align_up(block.size());
  const std::size_t rows_bytes = with_rows ? align_up(n * m) : 0;
  SharedDatasetSegment segment;
  segment.region_ = SharedMemoryRegion::create(cols_bytes + rows_bytes);
  std::byte* base = segment.region_.data();
  ExternalDataBuffers buffers;
  if (with_cols) {
    auto* cols = reinterpret_cast<DataValue*>(base);
    std::memcpy(cols, block.data(), block.size_bytes());
    buffers.cols = {cols, block.size()};
  }
  if (with_rows) {
    auto* rows = reinterpret_cast<DataValue*>(base + cols_bytes);
    for (Count s = 0; s < source.num_samples(); ++s) {
      const std::span<const DataValue> row = source.row(s);
      std::memcpy(rows + static_cast<std::size_t>(s) * n, row.data(),
                  row.size_bytes());
    }
    buffers.rows = {rows, n * m};
  }
  segment.view_ =
      Dataset(DiscreteDataset(source.num_vars(), source.num_samples(),
                              source.cardinalities(), buffers));
  return segment;
}

SharedDatasetSegment SharedDatasetSegment::create(
    const ContinuousDataset& source) {
  const auto n = static_cast<std::size_t>(source.num_vars());
  const auto m = static_cast<std::size_t>(source.num_samples());
  // Continuous segment layout: one 64-byte-aligned doubles block.
  //   [ column-major doubles  n*m ]
  SharedDatasetSegment segment;
  segment.region_ = SharedMemoryRegion::create(align_up(n * m * sizeof(double)));
  auto* doubles = reinterpret_cast<double*>(segment.region_.data());
  for (VarId v = 0; v < source.num_vars(); ++v) {
    const std::span<const double> column = source.column(v);
    std::memcpy(doubles + static_cast<std::size_t>(v) * m, column.data(),
                column.size_bytes());
  }
  ExternalContinuousBuffers buffers;
  buffers.cols = {doubles, n * m};
  segment.view_ = Dataset(ContinuousDataset(source.num_vars(),
                                            source.num_samples(), buffers));
  return segment;
}

}  // namespace fastbns
