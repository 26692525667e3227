// Reusable grow-only scratch buffers for the counting data path.
//
// Before this arena existed every endpoint group re-allocated its
// xy-code buffers; the serial kernel's vector and bitset passes would
// have added per-table index and mask blocks on top. One arena per
// CiTest instance (engines clone one test per thread, so the arena is
// per-thread by construction) keeps the high-water allocation alive
// across groups and depths — the hot path stops touching the allocator
// entirely after the first few groups.
//
// Each named buffer has a single user at a time; a span is invalidated
// by the next call for the *same* buffer (different buffers never
// alias).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fastbns {

class ScratchArena {
 public:
  /// Combined endpoint codes x*|Y| + y, one int32 per sample.
  [[nodiscard]] std::span<std::int32_t> xy_codes(std::size_t n) {
    return grow(xy_codes_, n);
  }

  /// Combined endpoint codes as one byte per sample, for column groups
  /// whose combined endpoint cardinality fits a byte.
  [[nodiscard]] std::span<std::uint8_t> xy_codes8(std::size_t n) {
    return grow(xy_codes8_, n);
  }

  /// Per-sample cell indices of one vector block (composed z+xy codes).
  [[nodiscard]] std::span<std::uint32_t> cell_indices(std::size_t n) {
    return grow(cell_indices_, n);
  }

  /// Half-width index block for tables within 65536 cells — twice the
  /// vector lanes and half the buffer traffic of the 32-bit block.
  [[nodiscard]] std::span<std::uint16_t> cell_indices16(std::size_t n) {
    return grow(cell_indices16_, n);
  }

  /// One sample block's value masks for the bitset pass: 64 samples per
  /// word, one run of words per value of each variable a table reads.
  [[nodiscard]] std::span<std::uint64_t> value_masks(std::size_t n) {
    return grow(value_masks_, n);
  }

 private:
  template <typename T>
  [[nodiscard]] static std::span<T> grow(std::vector<T>& buffer,
                                         std::size_t n) {
    if (buffer.size() < n) buffer.resize(n);
    return {buffer.data(), n};
  }

  std::vector<std::int32_t> xy_codes_;
  std::vector<std::uint8_t> xy_codes8_;
  std::vector<std::uint32_t> cell_indices_;
  std::vector<std::uint16_t> cell_indices16_;
  std::vector<std::uint64_t> value_masks_;
};

}  // namespace fastbns
