// Separating-set storage: SepSet(Vi, Vj) from Algorithm 1, consumed by the
// v-structure phase.
//
// Two storage kinds behind one read API. Every depth-0 separation has an
// empty set, and depth 0 removes most edges, so empty sets are one bit
// per unordered pair in the triangular pair index (pc/pair_index.hpp),
// paged so memory follows the highest pair touched. Non-empty sets are
// kept in a map keyed by the pair.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace fastbns {

class SepsetStore {
 public:
  /// Records the separating set of the unordered pair {x, y}, x != y;
  /// keeps the first recorded set if called twice, whichever kind either
  /// set is (engines commit in canonical order, so this pins sepsets to
  /// the lexicographically first accepting test).
  void set(VarId x, VarId y, std::vector<VarId> sepset);

  /// Records the empty set for every pair whose bit is set in `removed`,
  /// a bitmap over the triangular pair index: depth 0's removals, copied
  /// into the pages word by word. Every empty sepset is a depth-0 removal
  /// and depth 0 commits first, so the store must hold no non-empty set
  /// yet.
  void set_empty(std::span<const std::uint64_t> removed);

  /// The sepset of {x, y}, x != y; nullptr when the pair was never
  /// separated. A pair separated by the empty set yields one shared empty
  /// vector.
  [[nodiscard]] const std::vector<VarId>* find(VarId x, VarId y) const;

  /// True iff the pair has a sepset and it contains v.
  [[nodiscard]] bool separates_with(VarId x, VarId y, VarId v) const;

  /// Separated pairs of both kinds.
  [[nodiscard]] std::size_t size() const noexcept {
    return sets_.size() + empty_count_;
  }

 private:
  [[nodiscard]] static std::uint64_t key(VarId x, VarId y) noexcept;
  [[nodiscard]] bool has_empty(std::uint64_t pair) const noexcept;
  /// The bitmap word holding `pair`, its page allocated on first use.
  [[nodiscard]] std::uint64_t& empty_word(std::uint64_t pair);

  std::unordered_map<std::uint64_t, std::vector<VarId>> sets_;
  /// Bit pages of the triangular pair index; an unused page is empty.
  std::vector<std::vector<std::uint64_t>> empty_pages_;
  std::size_t empty_count_ = 0;
};

}  // namespace fastbns
