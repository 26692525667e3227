// Public surface of the multi-process engine beyond the SkeletonEngine
// interface: rank-resolution helpers (shared with the structure_tool echo
// and the bench sweep) and the per-depth barrier telemetry the
// bench_process_ranks table reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/skeleton_engine.hpp"

namespace fastbns {

/// Per-depth telemetry of the last process-engine run, recorded on the
/// driver side of the depth barrier.
struct ProcessDepthStats {
  std::int32_t depth = 0;
  std::int64_t ci_tests = 0;
  /// Whole run_depth wall time (dealing + forks + rank compute + gather).
  double seconds = 0.0;
  /// Depth barrier: first child forked → last child's reply merged and
  /// the child reaped. The parent does no CI work, so this is the
  /// depth's critical path through the ranks plus the exchange itself.
  double gather_seconds = 0.0;
  /// Slowest rank's self-reported compute time for the depth;
  /// gather_seconds - max_rank_seconds approximates the fork, reap,
  /// serialization and pipe cost of the barrier.
  double max_rank_seconds = 0.0;
  /// The busiest merged reply's executed tests: how evenly the deal
  /// spread the depth, ci_tests / rank count at best. Like the gather
  /// and max-rank seconds, 0 on a depth that ran in-process (degraded).
  std::int64_t max_rank_tests = 0;
  /// Recovery events (retransmits, respawns, re-partitions, degrades)
  /// the supervisor performed inside this depth; 0 on a clean depth.
  std::int32_t recoveries = 0;
};

/// What the supervisor did about a misbehaving rank, in escalation
/// order. kRetransmit covers corrupt and timed-out frames the
/// checksummed transport recovered without touching the rank.
enum class RecoveryAction : std::uint8_t {
  kRetransmit,   ///< asked the rank to resend a corrupt/late frame
  kRespawn,      ///< forked a replacement child for the same list
  kRepartition,  ///< retired the rank; its works went to the survivors
  kDegrade,      ///< abandoned forked execution for the in-process engine
};

[[nodiscard]] std::string_view to_string(RecoveryAction action) noexcept;

/// One supervisor intervention, in the order they happened.
struct RecoveryEvent {
  std::int32_t depth = 0;
  std::int32_t rank = -1;
  RecoveryAction action = RecoveryAction::kRetransmit;
  /// Forensics: what failed and what the supervisor saw (waitpid status,
  /// frame status, restart budget state).
  std::string detail;
};

/// The last run's per-depth stats when `engine` is a process engine,
/// nullptr otherwise (benches dynamic-cast through this instead of
/// depending on the concrete class).
[[nodiscard]] const std::vector<ProcessDepthStats>* process_engine_depth_stats(
    const SkeletonEngine& engine);

/// The last run's supervisor interventions when `engine` is a process
/// engine, nullptr otherwise. Empty vector = a fault-free run. The
/// structure_tool echoes these and the fault-injection tests assert on
/// them; same dynamic-cast seam as process_engine_depth_stats.
[[nodiscard]] const std::vector<RecoveryEvent>* process_engine_recovery_events(
    const SkeletonEngine& engine);

/// Effective rank count: `requested` when positive, min(2, hardware
/// threads) otherwise — multi-process by default, degenerating to one
/// rank on a single-cpu box. Always >= 1.
[[nodiscard]] std::int32_t resolve_rank_count(std::int32_t requested) noexcept;

/// Effective threads inside each rank: `requested` when positive,
/// otherwise the run's thread budget (num_threads, or all hardware
/// threads when 0) split across `rank_count` ranks, at least 1.
[[nodiscard]] std::int32_t resolve_rank_threads(std::int32_t requested,
                                                std::int32_t rank_count,
                                                int num_threads) noexcept;

}  // namespace fastbns
