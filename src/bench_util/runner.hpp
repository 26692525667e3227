// Shared measurement wrapper: configures a CI test + engine pair the way
// the paper's comparisons do and times one skeleton run.
#pragma once

#include <cstdint>
#include <string>

#include "bench_util/workloads.hpp"
#include "pc/skeleton.hpp"

namespace fastbns {

/// One bench run: the PcOptions learn_structure takes, plus the two
/// knobs it does not — the data layout and the Gaussian statistic's
/// covariance kernel.
struct EngineRunConfig : PcOptions {
  /// Strided row-major data access (the bnlearn-like baseline).
  bool row_major = false;
  /// Covariance-builder kernel of the Gaussian statistic ("auto" =
  /// blocked); ignored by discrete runs.
  std::string covariance_builder = "auto";
};

struct EngineRunResult {
  double seconds = 0.0;
  std::int64_t ci_tests = 0;
  std::int64_t edges = 0;
  std::int32_t max_depth = 0;
  SkeletonResult skeleton{};
};

/// Resolves `engine` through the EngineRegistry (canonical names or CLI
/// aliases — see list_engines()) and returns a config at `threads`
/// threads; the naive baseline also gets the bnlearn-like
/// strided/materialized/ungrouped data path. Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] EngineRunConfig engine_config_from_name(
    const std::string& engine, int threads = 0);

/// The Fast-BNS-seq configuration (optimized sequential).
[[nodiscard]] EngineRunConfig fastbns_seq_config();
/// The Fast-BNS-par configuration (CI-level, gs = 1 as in Table III).
[[nodiscard]] EngineRunConfig fastbns_par_config(int threads);
/// The bnlearn-like sequential baseline.
[[nodiscard]] EngineRunConfig baseline_seq_config();
/// The bnlearn-par-like baseline (edge-level over the naive data path).
[[nodiscard]] EngineRunConfig baseline_par_config(int threads);

/// Runs the skeleton phase once and reports wall time and counters. The
/// CI test builds its tables sample-parallel when the engine asks for
/// it, as learn_structure does.
[[nodiscard]] EngineRunResult run_skeleton(const Workload& workload,
                                           const EngineRunConfig& config);

/// Noise-controlled measurement for sub-second runs: repeats the run
/// (after one untimed warmup) until `min_total_seconds` of measurement has
/// accumulated or `max_repeats` is reached, and reports the fastest
/// repetition — the convention the paper's best-over-threads tables use.
[[nodiscard]] EngineRunResult run_skeleton_best(const Workload& workload,
                                                const EngineRunConfig& config,
                                                double min_total_seconds = 0.5,
                                                int max_repeats = 12);

}  // namespace fastbns
