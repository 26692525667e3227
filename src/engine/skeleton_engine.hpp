// The execution-strategy seam of skeleton discovery.
//
// All engines share one semantics — PC-stable over the canonical CI-test
// order — and differ only in *how* the pending tests of a depth are
// executed (sequentially, edge-parallel, sample-parallel, or by threads
// that claim whole works from one atomic cursor, the CI-level scheme of
// Section IV-B). The depth loop, graph and sepset bookkeeping live in the
// driver (learn_skeleton). Depth 0 runs without works: the engine tests
// every pair over the triangular pair index (pc/pair_index.hpp) and
// returns one removal bit per pair. At depth >= 1 an engine sees exactly
// one depth's work list at a time.
//
// Engines are stateful (they cache per-thread CiTest clones across
// depths), so one instance serves one learn_skeleton run at a time.
// Concrete engines live in their own translation units under src/engine/
// and are constructed through the EngineRegistry (engine_registry.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "pc/edge_work.hpp"
#include "pc/pc_options.hpp"
#include "stats/ci_test.hpp"

namespace fastbns {

class SkeletonEngine {
 public:
  virtual ~SkeletonEngine() = default;

  /// Called by the driver once per run, before the first depth. Engines
  /// drop state cached from a previous run here (e.g. per-thread CiTest
  /// clones), so reusing an engine instance across runs is safe even
  /// when a new prototype lands at a recycled address.
  virtual void prepare_run() {}

  /// Runs depth 0: the marginal test I(x, y | {}) of every pair of the
  /// `num_nodes` variables, calling the test exactly as run_depth would
  /// on the depth-0 list of the complete graph. Sets bit p of `removed`
  /// (pair_words(num_nodes) words, zero on entry) when pair p tests
  /// independent; the driver builds the graph from the clear bits and
  /// records an empty sepset for every set one. Returns the number of CI
  /// tests executed.
  /// The default builds that depth-0 list (build_depth_zero_works) and
  /// runs it through run_depth, so a backend that implements only
  /// run_depth still works; the builtin engines override it with a loop
  /// over the bitmap's words that builds no list.
  virtual std::int64_t run_depth_zero(VarId num_nodes,
                                      const CiTest& prototype,
                                      const PcOptions& options,
                                      std::span<std::uint64_t> removed);

  /// Runs the pending CI tests of one depth over `works` (built by
  /// build_depth_works from the driver's graph; at depth 0, only by the
  /// run_depth_zero default). The engine owns only test execution: it
  /// records each work's first accepting rank in `accepted`; the driver
  /// commits those outcomes to the graph and the sepsets afterwards.
  /// `prototype` is cloned per worker thread on first use. Returns the
  /// number of CI tests executed.
  virtual std::int64_t run_depth(std::vector<EdgeWork>& works,
                                 std::int32_t depth, const CiTest& prototype,
                                 const PcOptions& options) = 0;

  /// Benchmark stub: perfbench times the driver's call to it as the start
  /// of each depth's work-list build; at depth 0 the driver calls it
  /// right before run_depth_zero, with the graph still empty. No engine
  /// overrides it.
  [[nodiscard]] virtual bool take_prepared_depth_works(
      std::int32_t depth, const UndirectedGraph& graph, bool grouped,
      std::vector<EdgeWork>& works) {
    (void)depth;
    (void)graph;
    (void)grouped;
    (void)works;
    return false;
  }

  /// Canonical engine name; equals to_string(kind) for registry engines.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Whether build_depth_works may fuse both directions of an edge into
  /// one work unit (Section IV-C endpoint grouping), and whether depth 0
  /// tests each pair once. The naive baseline returns false: it models
  /// the classic ordered-pair traversal.
  [[nodiscard]] virtual bool supports_endpoint_grouping() const noexcept {
    return true;
  }

  /// Whether CI tests should be constructed with sample-level parallel
  /// contingency-table builds (the sample-parallel scheme of Section
  /// IV-A). Consulted by learn_structure and the bench runner when they
  /// configure the test for this engine, and by the driver's up-front
  /// sanity check: capping every permitted table below the thread count
  /// would make such builds pure atomic contention.
  [[nodiscard]] virtual bool wants_sample_parallel_test() const noexcept {
    return false;
  }

  /// Benchmark stub: perfbench's TracingEngine overrides it. Nothing in
  /// the library calls it.
  [[nodiscard]] virtual bool uses_sample_parallel_builds() const noexcept {
    return wants_sample_parallel_test();
  }
};

}  // namespace fastbns
