#include "engine/engine_common.hpp"

#include <algorithm>
#include <typeinfo>

#include "common/omp_utils.hpp"
#include "pc/pair_index.hpp"

namespace fastbns {
namespace {

/// Dynamic type folded with the test's own configuration fingerprint:
/// the address alone cannot distinguish a reconfigured (or
/// differently-typed) prototype constructed at a recycled address.
std::uint64_t prototype_fingerprint(const CiTest& prototype) noexcept {
  return static_cast<std::uint64_t>(typeid(prototype).hash_code()) ^
         prototype.config_token();
}

}  // namespace

std::vector<std::unique_ptr<CiTest>>& ThreadLocalTests::acquire(
    const CiTest& prototype, std::size_t count) {
  const std::uint64_t fingerprint = prototype_fingerprint(prototype);
  if (cloned_from_ != &prototype || cloned_fingerprint_ != fingerprint ||
      clones_.size() != count) {
    clones_.clear();
    clones_.reserve(count);
    for (std::size_t t = 0; t < count; ++t) clones_.push_back(prototype.clone());
    cloned_from_ = &prototype;
    cloned_fingerprint_ = fingerprint;
  }
  return clones_;
}

void ThreadLocalTests::reset() noexcept {
  clones_.clear();
  cloned_from_ = nullptr;
  cloned_fingerprint_ = 0;
}

std::int64_t process_materialized(EdgeWork& work, std::int32_t depth,
                                  CiTest& test, bool use_group_protocol) {
  std::int64_t executed = 0;
  if (use_group_protocol) test.begin_group(work.x, work.y);
  if (depth == 0) {
    const std::vector<VarId> empty_set;
    const CiResult result = use_group_protocol
                                ? test.test_in_group(empty_set)
                                : test.test(work.x, work.y, empty_set);
    ++executed;
    if (result.independent) work.accepted = 0;
    return executed;
  }
  const std::vector<VarId> flat = materialize_conditioning_sets(work, depth);
  const std::uint64_t total = work.total_tests();
  std::vector<VarId> z(static_cast<std::size_t>(depth));
  for (std::uint64_t r = 0; r < total; ++r) {
    const VarId* begin = flat.data() + r * static_cast<std::uint64_t>(depth);
    std::copy(begin, begin + depth, z.begin());
    const CiResult result = use_group_protocol
                                ? test.test_in_group(z)
                                : test.test(work.x, work.y, z);
    ++executed;
    if (result.independent) {
      work.accepted = r;
      break;
    }
  }
  return executed;
}

std::int64_t run_sequential_depth(std::vector<EdgeWork>& works,
                                  std::int32_t depth, CiTest& test,
                                  bool grouped, bool materialized,
                                  bool use_group_protocol) {
  std::int64_t tests = 0;
  std::vector<VarId> z;
  for (std::size_t i = 0; i < works.size(); ++i) {
    EdgeWork& work = works[i];
    if (work.total_tests() == 0) continue;
    // Classic sequential PC-stable skips the (y, x) direction when the
    // (x, y) direction already removed the edge within this depth. The
    // partner is matched by its endpoint ids — "the work before me was at
    // an odd index" is a layout accident, not an invariant, and a
    // reordered or filtered work list must never skip an unrelated edge
    // because its predecessor happened to be removed.
    if (!grouped && i > 0) {
      const EdgeWork& previous = works[i - 1];
      if (previous.removed() && previous.x == work.y &&
          previous.y == work.x) {
        continue;
      }
    }
    if (materialized) {
      tests += process_materialized(work, depth, test, use_group_protocol);
    } else {
      tests += run_edge_tests(work, depth, /*group=*/1, test, z);
    }
  }
  return tests;
}

std::int64_t run_depth_zero_words(VarId num_nodes, std::uint64_t begin,
                                  std::uint64_t end, DepthZeroCalls calls,
                                  CiTest& test,
                                  std::span<std::uint64_t> removed) {
  const std::uint64_t pairs = pair_count(num_nodes);
  const std::span<const VarId> empty_set;
  std::int64_t tests = 0;
  const auto independent = [&](VarId x, VarId y) {
    ++tests;
    if (!calls.group_protocol) return test.test(x, y, empty_set).independent;
    test.begin_group(x, y);
    return test.test_in_group(empty_set).independent;
  };
  for (std::uint64_t w = begin; w < end; ++w) {
    auto [lo, hi] = word_first_pair(w);
    const std::uint64_t count =
        std::min(kPairsPerWord, pairs - w * kPairsPerWord);
    std::uint64_t bits = 0;
    for (std::uint64_t b = 0; b < count; ++b) {
      bool separated = independent(lo, hi);
      if (!calls.grouped &&
          !(separated && calls.reverse_only_if_dependent)) {
        separated = independent(hi, lo) || separated;
      }
      if (separated) bits |= std::uint64_t{1} << b;
      if (++lo == hi) {
        ++hi;
        lo = 0;
      }
    }
    removed[w] = bits;
  }
  return tests;
}

std::int64_t run_depth_zero_static(
    VarId num_nodes, DepthZeroCalls calls,
    std::vector<std::unique_ptr<CiTest>>& clones,
    std::span<std::uint64_t> removed) {
  std::int64_t tests = 0;
#pragma omp parallel reduction(+ : tests)
  {
    CiTest& test = *clones[current_thread()];
#pragma omp for schedule(static)
    for (std::int64_t w = 0; w < static_cast<std::int64_t>(removed.size());
         ++w) {
      const auto word = static_cast<std::uint64_t>(w);
      tests += run_depth_zero_words(num_nodes, word, word + 1, calls, test,
                                    removed);
    }
  }
  return tests;
}

}  // namespace fastbns
