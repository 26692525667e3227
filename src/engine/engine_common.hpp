// Helpers shared by the concrete skeleton engines: per-thread CiTest
// clone caching, the materialized-set inner loop of the naive/ablation
// paths, the sequential depth runner the three sequential-kernel
// engines delegate to, and depth 0's loop over the words of the pair
// bitmap.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/skeleton_engine.hpp"
#include "pc/edge_work.hpp"
#include "stats/ci_test.hpp"

namespace fastbns {

/// Lazily-built CiTest clones, one per worker, reused across the depths
/// of a run. Cached entries are keyed on the prototype's address, its
/// dynamic type, and its configuration fingerprint
/// (CiTest::config_token()), so a *reconfigured* prototype at a recycled
/// address re-clones instead of silently reusing stale clones. The cache
/// must still be reset() between runs: a same-configuration new prototype
/// at a recycled address is indistinguishable by design, and the old
/// clones would carry the previous run's counters and workspaces.
class ThreadLocalTests {
 public:
  /// Ensures `count` clones of `prototype` and returns them. The returned
  /// reference is invalidated by the next acquire() call.
  std::vector<std::unique_ptr<CiTest>>& acquire(const CiTest& prototype,
                                                std::size_t count);

  /// Drops all cached clones (called at run start).
  void reset() noexcept;

 private:
  const CiTest* cloned_from_ = nullptr;
  /// Dynamic-type hash ^ config_token() of the cached prototype.
  std::uint64_t cloned_fingerprint_ = 0;
  std::vector<std::unique_ptr<CiTest>> clones_;
};

/// Base of the engines that keep per-thread CiTest clones: wires the
/// driver's prepare_run() to the cache reset so no engine can forget it.
class ClonePoolEngine : public SkeletonEngine {
 public:
  void prepare_run() final { tests_.reset(); }

 protected:
  ThreadLocalTests tests_;
};

/// Materialized-set inner loop: conditioning sets are enumerated into a
/// flat buffer before any test runs (extra memory + an extra enumeration
/// pass — the strategy the paper's on-the-fly generation replaces). The
/// naive baseline additionally recomputes the endpoint codes on every
/// test (use_group_protocol = false).
std::int64_t process_materialized(EdgeWork& work, std::int32_t depth,
                                  CiTest& test, bool use_group_protocol);

/// One depth of the sequential kernel, shared by the naive-seq,
/// fastbns-seq and sample-parallel engines. `grouped` says whether works
/// fuse both edge directions; when false the classic PC-stable skip
/// applies: the (y, x) direction is skipped once the (x, y) direction
/// removed the edge within this depth. The partner is identified by its
/// endpoint ids — a preceding work is only "the other direction" when its
/// (x, y) equals this work's (y, x) — so reordered or filtered work lists
/// can never skip an unrelated edge (or run a removed edge's second
/// direction). `materialized` selects the flat-buffer strategy over
/// on-the-fly sets (run_edge_tests, always through the group protocol);
/// `use_group_protocol` applies to the flat-buffer strategy.
std::int64_t run_sequential_depth(std::vector<EdgeWork>& works,
                                  std::int32_t depth, CiTest& test,
                                  bool grouped, bool materialized,
                                  bool use_group_protocol);

/// How depth 0 calls the test on the pair {lo, hi}: the calls its works
/// in the depth-0 list of the complete graph make under run_depth.
struct DepthZeroCalls {
  /// One test of (lo, hi); otherwise (lo, hi), then (hi, lo).
  bool grouped = true;
  /// Ungrouped only: (hi, lo) runs only when (lo, hi) tested dependent,
  /// the sequential runner's PC-stable skip. The parallel engines run
  /// every work, so both directions.
  bool reverse_only_if_dependent = false;
  /// begin_group + test_in_group; false calls test(x, y, {}), as the
  /// naive baseline does.
  bool group_protocol = true;
};

/// Depth 0 over words [begin, end) of the pair bitmap of `num_nodes`
/// variables (pc/pair_index.hpp): runs each pair's marginal tests as
/// `calls` says and overwrites each word of `removed` with its pairs'
/// removal bits (set when a test accepted). The last word's bits past the
/// last pair stay clear. Returns the number of CI tests executed.
std::int64_t run_depth_zero_words(VarId num_nodes, std::uint64_t begin,
                                  std::uint64_t end, DepthZeroCalls calls,
                                  CiTest& test,
                                  std::span<std::uint64_t> removed);

/// Depth 0 of the in-process parallel engines: a static OpenMP partition
/// of the bitmap's words, the paper's prescription for depth 0 (each
/// pair needs one test, so the load is known up front). Each word is
/// written by exactly one thread, through run_depth_zero_words.
std::int64_t run_depth_zero_static(
    VarId num_nodes, DepthZeroCalls calls,
    std::vector<std::unique_ptr<CiTest>>& clones,
    std::span<std::uint64_t> removed);

}  // namespace fastbns
