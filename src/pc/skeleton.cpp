// The depth-loop driver of Algorithm 1. Execution strategy lives behind
// the SkeletonEngine interface (src/engine/): the driver owns the graph,
// sepset and statistics bookkeeping and delegates the CI tests of each
// depth to the engine selected through the EngineRegistry. Depth 0 comes
// back as one removal bit per pair, from which the driver builds the
// graph; every later depth runs a work list built from the current graph.
#include "pc/skeleton.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "engine/engine_registry.hpp"
#include "engine/skeleton_engine.hpp"
#include "pc/pair_index.hpp"
#include "stats/table_builder_detail.hpp"

namespace fastbns {
namespace {

static_assert(static_cast<std::size_t>(kMaxConditioningDepth) <=
                  table_detail::kMaxDepth,
              "the table kernels' buffers must hold every conditioning set "
              "the depth loop reaches");

/// Depth 0's commit: an edge for every pair whose bit in `removed` is
/// clear, and the empty sepset for every pair whose bit is set.
void commit_depth_zero(std::span<const std::uint64_t> removed,
                       UndirectedGraph& graph, SepsetStore& sepsets,
                       DepthStats& stats) {
  std::uint64_t pair = 0;
  for (VarId hi = 1; hi < graph.num_nodes(); ++hi) {
    for (VarId lo = 0; lo < hi; ++lo, ++pair) {
      if ((removed[pair / kPairsPerWord] >> (pair % kPairsPerWord) & 1) == 0) {
        graph.add_edge(lo, hi);
      }
    }
  }
  stats.edges_removed = stats.edges_at_start - graph.num_edges();
  sepsets.set_empty(removed);
}

/// Removes each removed work's edge and records its sepset, unranked from
/// the accepting rank against the snapshot the works point into (the
/// graph itself changes under the walk). Walking the list in order keeps
/// the first write: for ungrouped works the (x, y) direction precedes
/// (y, x), pinning the canonical sepset.
void commit_depth(const std::vector<EdgeWork>& works, std::int32_t depth,
                  UndirectedGraph& graph, SepsetStore& sepsets,
                  DepthStats& stats) {
  std::vector<VarId> z;
  for (const EdgeWork& work : works) {
    if (!work.removed()) continue;
    if (graph.remove_edge(work.x, work.y)) {
      ++stats.edges_removed;
    }
    conditioning_set_for(work, depth, work.accepted, z);
    sepsets.set(work.x, work.y, z);
  }
}

}  // namespace

SkeletonResult learn_skeleton(VarId num_nodes, const CiTest& prototype,
                              const PcOptions& options,
                              SkeletonEngine& engine) {
  options.validate();
  engine.prepare_run();
  const ScopedNumThreads thread_guard(options.num_threads);
  // Engine-dependent option sanity check, here because only the resolved
  // engine knows its build strategy and num_threads == 0 means the
  // OpenMP default (now in effect through the guard above): capping
  // every permitted table below the thread count would make
  // sample-parallel builds pure atomic contention. The cap consulted is
  // the one the prototype actually enforces (a caller-built test may
  // carry its own), falling back to the PcOptions mirror.
  const std::size_t cell_cap = prototype.table_cell_cap() != 0
                                   ? prototype.table_cell_cap()
                                   : options.max_table_cells;
  if (engine.wants_sample_parallel_test() &&
      cell_cap < static_cast<std::size_t>(hardware_threads())) {
    throw std::invalid_argument(
        "learn_skeleton: the table cell cap is below the effective thread "
        "count, so every permitted contingency table would be smaller than "
        "the thread team and this engine's sample-parallel builds could "
        "only contend on atomics; raise max_table_cells / the test's "
        "max_cells or lower num_threads");
  }
  const WallTimer total_timer;

  SkeletonResult result;
  result.graph = UndirectedGraph(num_nodes);

  const bool grouped =
      options.group_endpoints && engine.supports_endpoint_grouping();
  // Each depth >= 1 rebuilds it; the depth's works and commit read it.
  AdjacencySnapshot snapshot;

  // Depth 0 (every max_depth reaches it) tests each pair of the complete
  // graph once, so it needs no graph and no works: the engine returns a
  // removal bit per pair and the graph is built from the clear bits.
  if (num_nodes >= 2) {
    // Only perfbench's timestamp of the depth's start: no library engine
    // hands a prepared list over.
    std::vector<EdgeWork> none;
    (void)engine.take_prepared_depth_works(0, result.graph, grouped, none);
    DepthStats stats;
    stats.edges_at_start = static_cast<std::int64_t>(pair_count(num_nodes));
    const WallTimer depth_timer;
    std::vector<std::uint64_t> removed(pair_words(num_nodes));
    stats.ci_tests =
        engine.run_depth_zero(num_nodes, prototype, options, removed);
    commit_depth_zero(removed, result.graph, result.sepsets, stats);
    stats.seconds = depth_timer.seconds();
    result.total_ci_tests += stats.ci_tests;
    result.max_depth_reached = 0;
    result.depth_stats.push_back(stats);
  }

  for (std::int32_t depth = 1; depth <= kMaxConditioningDepth; ++depth) {
    if (options.max_depth >= 0 && depth > options.max_depth) break;
    if (result.graph.num_edges() == 0) break;

    // No library engine hands a prepared list over, so the driver always
    // builds; the call stays because perfbench times it as the start of
    // the work-list build.
    std::vector<EdgeWork> works;
    if (!engine.take_prepared_depth_works(depth, result.graph, grouped,
                                          works)) {
      works = build_depth_works(result.graph, depth, grouped, snapshot);
    }
    const bool any_tests =
        std::any_of(works.begin(), works.end(),
                    [](const EdgeWork& w) { return w.total_tests() > 0; });
    if (!any_tests) break;  // Algorithm 1 line 20: every pool is below depth

    DepthStats stats;
    stats.depth = depth;
    stats.edges_at_start = result.graph.num_edges();
    const WallTimer depth_timer;

    stats.ci_tests = engine.run_depth(works, depth, prototype, options);

    commit_depth(works, depth, result.graph, result.sepsets, stats);
    stats.seconds = depth_timer.seconds();
    result.total_ci_tests += stats.ci_tests;
    result.max_depth_reached = depth;
    result.depth_stats.push_back(stats);
  }

  result.seconds = total_timer.seconds();
  return result;
}

SkeletonResult learn_skeleton(VarId num_nodes, const CiTest& prototype,
                              const PcOptions& options) {
  const std::unique_ptr<SkeletonEngine> engine =
      EngineRegistry::instance().create(options);
  return learn_skeleton(num_nodes, prototype, options, *engine);
}

}  // namespace fastbns
