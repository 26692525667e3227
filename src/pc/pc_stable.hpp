// End-to-end PC-stable: the library's main entry point.
//
//   Dataset data = ...;     // discrete or continuous (or any CiTest)
//   PcOptions options;      // engine, threads, gs, alpha, ci_test
//   PcStableResult result = learn_structure(data, options);
//   result.cpdag;           // the learned pattern
//
// All engines produce the identical CPDAG (PC-stable is order-independent
// and the engines share one canonical test order); they differ only in
// speed — which is the entire subject of the paper. The statistic is
// chosen at runtime (PcOptions::ci_test through stats/ci_test_factory):
// discrete data defaults to the paper's G^2 test, continuous data to
// Fisher-z partial correlation.
#pragma once

#include "dataset/dataset.hpp"
#include "graph/pdag.hpp"
#include "pc/orientation.hpp"
#include "pc/pc_options.hpp"
#include "pc/skeleton.hpp"

namespace fastbns {

struct PcStableResult {
  Pdag cpdag{0};
  SkeletonResult skeleton;
  OrientationStats orientation;
  double total_seconds = 0.0;
};

/// Runs the full pipeline with an arbitrary CI test (statistical or
/// oracle). `prototype` is cloned per thread by parallel engines.
[[nodiscard]] PcStableResult pc_stable(VarId num_nodes, const CiTest& prototype,
                                       const PcOptions& options);

/// Same pipeline with a caller-supplied skeleton engine (see
/// learn_skeleton's engine overload); `options.engine` is ignored.
[[nodiscard]] PcStableResult pc_stable(VarId num_nodes, const CiTest& prototype,
                                       const PcOptions& options,
                                       SkeletonEngine& engine);

/// Convenience wrapper: constructs the statistic options.ci_test selects
/// for the dataset's kind (G^2 with options.alpha on discrete data,
/// Fisher-z on continuous data; sample-parallel contingency builds when
/// the selected engine asks for them) and runs the full pipeline.
[[nodiscard]] PcStableResult learn_structure(const Dataset& data,
                                             const PcOptions& options = {});

/// Same convenience wrapper with a caller-supplied engine instance —
/// the path for callers that inspect engine telemetry after the run
/// (process_engine_depth_stats / process_engine_recovery_events).
[[nodiscard]] PcStableResult learn_structure(const Dataset& data,
                                             const PcOptions& options,
                                             SkeletonEngine& engine);

/// DiscreteDataset conveniences: zero-copy borrow into the Dataset
/// overloads, preserving the pre-Dataset signatures every existing
/// caller uses. `data` must outlive the call (it does — the run is
/// synchronous).
[[nodiscard]] PcStableResult learn_structure(const DiscreteDataset& data,
                                             const PcOptions& options = {});
[[nodiscard]] PcStableResult learn_structure(const DiscreteDataset& data,
                                             const PcOptions& options,
                                             SkeletonEngine& engine);
/// ContinuousDataset conveniences, same borrow semantics.
[[nodiscard]] PcStableResult learn_structure(const ContinuousDataset& data,
                                             const PcOptions& options = {});
[[nodiscard]] PcStableResult learn_structure(const ContinuousDataset& data,
                                             const PcOptions& options,
                                             SkeletonEngine& engine);

}  // namespace fastbns
