#include "pc/pc_options.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fault/fault_schedule.hpp"
#include "ipc/transport.hpp"
#include "stats/ci_test_factory.hpp"

namespace fastbns {

// Every rejection message carries the offending value: a validation error
// surfacing from a config file or a sweep script is useless when it names
// the field but not what the caller actually passed.
void PcOptions::validate() const {
  if (group_size < 1) {
    throw std::invalid_argument("PcOptions::group_size must be >= 1, got " +
                                std::to_string(group_size));
  }
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    throw std::invalid_argument("PcOptions::alpha must be in (0, 1), got " +
                                std::to_string(alpha));
  }
  if (max_depth < -1) {
    throw std::invalid_argument("PcOptions::max_depth must be >= -1, got " +
                                std::to_string(max_depth));
  }
  if (num_threads < 0) {
    throw std::invalid_argument("PcOptions::num_threads must be >= 0, got " +
                                std::to_string(num_threads));
  }
  if (num_threads > kMaxThreads) {
    throw std::invalid_argument(
        "PcOptions::num_threads is " + std::to_string(num_threads) +
        ", exceeding kMaxThreads (" + std::to_string(kMaxThreads) +
        "); this is almost certainly a typo");
  }
  if (rank_count < 0) {
    throw std::invalid_argument(
        "PcOptions::rank_count must be >= 0 (0 = auto: two ranks, or one "
        "on a single-cpu box), got " +
        std::to_string(rank_count));
  }
  if (rank_count > kMaxRanks) {
    throw std::invalid_argument(
        "PcOptions::rank_count is " + std::to_string(rank_count) +
        ", exceeding kMaxRanks (" + std::to_string(kMaxRanks) +
        "); every rank is a forked process, so this is almost certainly "
        "a typo");
  }
  if (rank_threads < 0) {
    throw std::invalid_argument(
        "PcOptions::rank_threads must be >= 0 (0 = auto: the thread "
        "budget split across ranks), got " +
        std::to_string(rank_threads));
  }
  if (rank_threads > kMaxThreads) {
    throw std::invalid_argument(
        "PcOptions::rank_threads is " + std::to_string(rank_threads) +
        ", exceeding kMaxThreads (" + std::to_string(kMaxThreads) +
        "); this is almost certainly a typo");
  }
  // The degrade rung runs rank_count x rank_threads std::threads in the
  // driver process, so the product answers to the same cap.
  if (rank_count > 0 && rank_threads > 0 &&
      static_cast<std::int64_t>(rank_count) * rank_threads > kMaxThreads) {
    throw std::invalid_argument(
        "PcOptions::rank_count x rank_threads is " +
        std::to_string(rank_count) + " x " + std::to_string(rank_threads) +
        ", exceeding kMaxThreads (" + std::to_string(kMaxThreads) +
        "); a run that degrades in-process starts that many threads");
  }
  if (max_rank_restarts < 0) {
    throw std::invalid_argument(
        "PcOptions::max_rank_restarts must be >= 0 (0 = never respawn, "
        "re-partition a dead rank's shard immediately), got " +
        std::to_string(max_rank_restarts));
  }
  if (max_rank_restarts > kMaxRankRestarts) {
    throw std::invalid_argument(
        "PcOptions::max_rank_restarts is " + std::to_string(max_rank_restarts) +
        ", exceeding kMaxRankRestarts (" + std::to_string(kMaxRankRestarts) +
        "); each restart forks and re-runs a list, so this is "
        "almost certainly a typo");
  }
  // Parses the fault-schedule grammar, so a typoed injection fails the
  // run up front with the offending entry named instead of silently
  // skipping the fault (FaultSchedule::parse throws invalid_argument).
  if (!fault_schedule.empty()) (void)FaultSchedule::parse(fault_schedule);
  // Resolve the transport name, throwing its known-names message (with
  // the offending value) for anything unknown — same contract as engines
  // and CI tests.
  (void)resolve_transport_name(ipc_transport);
  if (table_builder != "auto") {
    throw std::invalid_argument(
        "PcOptions::table_builder \"" + table_builder +
        "\" is not accepted: tables count through the one serial kernel "
        "(\"auto\"); set FASTBNS_SIMD=off to force its scalar passes");
  }
  const std::vector<std::string> tests = list_ci_tests();
  if (std::find(tests.begin(), tests.end(), ci_test) == tests.end()) {
    std::string message = "PcOptions::ci_test \"" + ci_test +
                          "\" is not a known CI test; known tests:";
    for (const std::string& known : tests) {
      message += ' ';
      message += known;
    }
    throw std::invalid_argument(message);
  }
  if (max_table_cells < 4) {
    throw std::invalid_argument(
        "PcOptions::max_table_cells must be >= 4, got " +
        std::to_string(max_table_cells) +
        ": a smaller cap cannot hold even the 2x2 marginal table of two "
        "binary variables, so every CI test would be skipped and no edge "
        "ever removed");
  }
  // The engine-dependent combination rule (max_table_cells vs the
  // effective thread count, for engines that build tables
  // sample-parallel) lives in the skeleton driver, where the engine is
  // definitively resolved — see learn_skeleton.
}

}  // namespace fastbns
