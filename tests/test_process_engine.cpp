// The multi-process engine against the library's central claim: forked
// rank children sending their removals over their IPC channels must
// produce the bit-identical skeleton (adjacency + sepsets + removal
// depths) and the identical executed-test count the in-process engines
// produce — at every rank count, including one rank and more ranks than
// useful. Plus the fault-tolerance layer: under every deterministic
// injected fault (kill, wedge, corrupt/truncate/delay-frame, slow rank,
// spawn failure, and the channel-severing drop-conn/partial-write) the
// supervisor's recovery ladder — retransmit, respawn (a fresh fork of
// the same list), re-partition, degrade to the in-process engine — must
// complete the run with the identical fingerprint, reap every child it
// forked, and name what happened in the recovery telemetry. Plus
// child-exception propagation, the end-to-end learn_structure path,
// whose ranks read the dataset they inherit at fork, and the rank/thread
// resolution rules.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine_registry.hpp"
#include "engine/process_engine.hpp"
#include "fuzz_util.hpp"
#include "network/forward_sampler.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"
#include "pc/skeleton.hpp"
#include "scoped_env.hpp"
#include "stats/discrete_ci_test.hpp"

namespace fastbns {
namespace {

PcOptions process_options(std::int32_t ranks, std::int32_t rank_threads = 1) {
  PcOptions options;
  options.engine = EngineKind::kProcess;
  options.rank_count = ranks;
  options.rank_threads = rank_threads;
  return options;
}

TEST(ProcessEngine, MatchesTheSequentialReferenceAcrossRankCounts) {
  // Three seeds x {1, 2, 4} ranks x {1, 2} threads-per-rank, each
  // fingerprinted against fastbns-seq. One rank pins the degenerate
  // group, four ranks exceed the work some shallow depths have — the
  // barrier must stay correct when a rank's deal is empty and it forks
  // no child.
  for (std::uint64_t seed : {0ull, 3ull, 7ull}) {
    const fuzz::FuzzInstance instance = fuzz::make_instance(seed);
    const VarId n = instance.data.num_vars();

    PcOptions reference_options;
    reference_options.engine = EngineKind::kFastSequential;
    const DiscreteCiTest reference_test(instance.data, CiTestOptions{});
    const fuzz::SkeletonFingerprint reference = fuzz::fingerprint(
        learn_skeleton(n, reference_test, reference_options), n);

    for (const std::int32_t ranks : {1, 2, 4}) {
      for (const std::int32_t rank_threads : {1, 2}) {
        const DiscreteCiTest test(instance.data, CiTestOptions{});
        const fuzz::SkeletonFingerprint actual = fuzz::fingerprint(
            learn_skeleton(n, test, process_options(ranks, rank_threads)), n);
        EXPECT_TRUE(actual == reference)
            << "seed=" << seed << " ranks=" << ranks << "x" << rank_threads
            << ": " << fuzz::describe_divergence(reference, actual, n);
      }
    }
  }
}

TEST(ProcessEngine, ExecutedTestCountsMatchTheReferenceAtEveryRankCount) {
  // Stronger than result identity: the ranks must run exactly the tests
  // the sequential engine runs (same works, same early stops), so the
  // summed per-depth counters agree — the invariant that makes the
  // paper-style CI-test tables comparable across engines.
  const fuzz::FuzzInstance instance = fuzz::make_instance(11);
  const VarId n = instance.data.num_vars();
  PcOptions reference_options;
  reference_options.engine = EngineKind::kFastSequential;
  const DiscreteCiTest reference_test(instance.data, CiTestOptions{});
  const SkeletonResult reference =
      learn_skeleton(n, reference_test, reference_options);
  for (const std::int32_t ranks : {1, 2, 3, 4, 5}) {
    const DiscreteCiTest test(instance.data, CiTestOptions{});
    const SkeletonResult actual =
        learn_skeleton(n, test, process_options(ranks));
    EXPECT_EQ(actual.total_ci_tests, reference.total_ci_tests)
        << "ranks=" << ranks;
    ASSERT_EQ(actual.depth_stats.size(), reference.depth_stats.size())
        << "ranks=" << ranks;
    for (std::size_t d = 0; d < reference.depth_stats.size(); ++d) {
      EXPECT_EQ(actual.depth_stats[d].ci_tests,
                reference.depth_stats[d].ci_tests)
          << "ranks=" << ranks << " depth=" << d;
      EXPECT_EQ(actual.depth_stats[d].edges_removed,
                reference.depth_stats[d].edges_removed)
          << "ranks=" << ranks << " depth=" << d;
    }
  }
}

TEST(ProcessEngine, LearnStructureOverTheInheritedDatasetMatchesSequential) {
  // The end-to-end path production runs take: learn_structure builds the
  // CI test on the caller's dataset, forks the ranks, which read both
  // through the pages they inherit, and orients the agreed skeleton. The
  // CPDAG must match the sequential engine's edge for edge.
  Rng rng(2024);
  const auto network = benchmark_network("alarm");
  ASSERT_TRUE(network.has_value());
  const DiscreteDataset data =
      forward_sample(*network, 1000, rng, DataLayout::kColumnMajor);

  PcOptions sequential;
  sequential.engine = EngineKind::kFastSequential;
  const PcStableResult expected = learn_structure(data, sequential);
  const PcStableResult actual = learn_structure(data, process_options(2, 2));

  auto directed = actual.cpdag.directed_edges();
  auto expected_directed = expected.cpdag.directed_edges();
  std::sort(directed.begin(), directed.end());
  std::sort(expected_directed.begin(), expected_directed.end());
  EXPECT_EQ(directed, expected_directed);
  auto undirected = actual.cpdag.undirected_edges();
  auto expected_undirected = expected.cpdag.undirected_edges();
  std::sort(undirected.begin(), undirected.end());
  std::sort(expected_undirected.begin(), expected_undirected.end());
  EXPECT_EQ(undirected, expected_undirected);
  EXPECT_EQ(actual.skeleton.total_ci_tests, expected.skeleton.total_ci_tests);
}

/// Runs the process engine under `options` and returns the fingerprint,
/// the skeleton result and the supervisor's recovery events.
struct FaultRun {
  fuzz::SkeletonFingerprint fingerprint;
  SkeletonResult result;
  std::vector<RecoveryEvent> events;
  std::vector<ProcessDepthStats> depth_stats;
};

FaultRun run_process(const fuzz::FuzzInstance& instance, PcOptions options) {
  const auto engine = EngineRegistry::instance().create("process");
  const DiscreteCiTest test(instance.data, CiTestOptions{});
  FaultRun run;
  run.result =
      learn_skeleton(instance.data.num_vars(), test, options, *engine);
  run.fingerprint = fuzz::fingerprint(run.result, instance.data.num_vars());
  run.events = *process_engine_recovery_events(*engine);
  run.depth_stats = *process_engine_depth_stats(*engine);
  return run;
}

fuzz::SkeletonFingerprint sequential_fingerprint(
    const fuzz::FuzzInstance& instance, std::int64_t* total_tests = nullptr) {
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  const DiscreteCiTest test(instance.data, CiTestOptions{});
  const SkeletonResult result =
      learn_skeleton(instance.data.num_vars(), test, options);
  if (total_tests != nullptr) *total_tests = result.total_ci_tests;
  return fuzz::fingerprint(result, instance.data.num_vars());
}

bool has_action(const std::vector<RecoveryEvent>& events,
                RecoveryAction action, int rank = -2) {
  return std::any_of(events.begin(), events.end(),
                     [&](const RecoveryEvent& event) {
                       return event.action == action &&
                              (rank == -2 || event.rank == rank);
                     });
}

std::string describe_events(const std::vector<RecoveryEvent>& events) {
  std::string text;
  for (const RecoveryEvent& event : events) {
    text += "depth " + std::to_string(event.depth) + " rank " +
            std::to_string(event.rank) + " " +
            std::string(to_string(event.action)) + ": " + event.detail + "\n";
  }
  return text.empty() ? "(no events)" : text;
}

TEST(ProcessEngine, EnvInjectedRankDeathRecoversViaRespawn) {
  // FASTBNS_FAULT_SCHEDULE="kill@rank=1,depth=1" makes that rank's
  // depth-1 child exit before it runs its list — the deterministic
  // stand-in for an OOM-killed or crashed worker, reaching the engine
  // through the same env path CI's fault sweep uses. The supervisor forks
  // the same list again, and the result stays bit-identical. (The
  // clear-error contract for unsupervised dead ranks is covered at the
  // ProcessGroup level in test_ipc.)
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  const FaultRun run = [&] {
    const ScopedEnv schedule("FASTBNS_FAULT_SCHEDULE", "kill@rank=1,depth=1");
    return run_process(instance, process_options(2));
  }();
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  EXPECT_EQ(run.result.total_ci_tests, reference_tests);
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kRespawn, 1))
      << describe_events(run.events);
}

TEST(ProcessEngine, EveryInjectedFaultPreservesTheFingerprint) {
  // The acceptance sweep: with any single injected fault the run must
  // complete with the skeleton fingerprint (adjacency + sepsets +
  // removal depths) and the executed-test count bit-identical to the
  // sequential reference, at 2 and 4 ranks. The per-frame deadline is
  // tightened to 400 ms so the wedge/delay/truncate faults trip it in
  // test time rather than at the 120 s default.
  const ScopedEnv deadline("FASTBNS_RANK_TIMEOUT_MS", "400");
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  const struct {
    const char* schedule;
    bool expect_events;
    /// The depth a respawn must be recorded at; -1 checks none.
    std::int32_t respawn_depth = -1;
  } cases[] = {
      {"kill@rank=1,depth=1", true},
      // Past depth 1 the respawned child re-runs works built after the
      // depth-1 commit, whose sepsets the driver unranks from the ranks'
      // accepted ranks. The instance reaches depth 3, so the kill must
      // fire at depth 2.
      {"kill@rank=1,depth=2", true, 2},
      {"kill@rank=0,depth=0", true},
      {"wedge@rank=0,depth=1", true},
      {"wedge@rank=0,depth=0", true},
      {"corrupt-frame@rank=1,depth=0;seed=7", true},
      {"truncate-frame@rank=1,depth=1", true},
      // Depth 0's reply carries pair words instead of removals; the
      // instance's 66 pairs make two words, so ranks 0 and 1 both get one.
      {"truncate-frame@rank=1,depth=0", true},
      {"delay-frame@rank=0,depth=1,ms=900", true},
      // The channel-severing faults: the channel dies while waitpid
      // still says the rank is running (drop-conn), or dies mid-frame
      // leaving a half-written record behind (partial-write) — the only
      // faults that produce EOF from a live rank.
      {"drop-conn@rank=1,depth=1", true},
      {"partial-write@rank=1,depth=1", true},
      {"partial-write@rank=1,depth=0", true},
      // Slow but inside the deadline: must NOT trigger recovery.
      {"slow-rank@rank=0,depth=0,ms=10", false},
  };
  for (const auto& fault : cases) {
    for (const std::int32_t ranks : {2, 4}) {
      PcOptions options = process_options(ranks);
      options.fault_schedule = fault.schedule;
      const FaultRun run = run_process(instance, options);
      EXPECT_TRUE(run.fingerprint == reference)
          << "schedule=" << fault.schedule << " ranks=" << ranks << ": "
          << fuzz::describe_divergence(reference, run.fingerprint,
                                       instance.data.num_vars());
      EXPECT_EQ(run.result.total_ci_tests, reference_tests)
          << "schedule=" << fault.schedule << " ranks=" << ranks;
      EXPECT_EQ(!run.events.empty(), fault.expect_events)
          << "schedule=" << fault.schedule << " ranks=" << ranks << "\n"
          << describe_events(run.events);
      if (fault.respawn_depth >= 0) {
        EXPECT_TRUE(std::any_of(
            run.events.begin(), run.events.end(),
            [&](const RecoveryEvent& event) {
              return event.action == RecoveryAction::kRespawn &&
                     event.depth == fault.respawn_depth;
            }))
            << "schedule=" << fault.schedule << " ranks=" << ranks << "\n"
            << describe_events(run.events);
      }
    }
  }
}

TEST(ProcessEngine, NoRankOutlivesTheLearn) {
  // A child lives for one depth: the supervisor reaps it as soon as its
  // reply merges, when it replaces a failed child, and when it retires a
  // rank. So once learn_skeleton returns, the engine — still alive, its
  // group included — has no child left, not even a zombie: clean, and
  // under each fault that leaves a child dead, severed or wedged. The
  // 400 ms deadline lets the wedge trip in test time.
  const ScopedEnv deadline("FASTBNS_RANK_TIMEOUT_MS", "400");
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  for (const std::string schedule :
       {"", "kill@rank=1,depth=1", "drop-conn@rank=1,depth=1",
        "partial-write@rank=1,depth=1", "wedge@rank=0,depth=1",
        "kill@rank=1,depth=0", "wedge@rank=0,depth=0"}) {
    const auto engine = EngineRegistry::instance().create("process");
    const DiscreteCiTest test(instance.data, CiTestOptions{});
    PcOptions options = process_options(2);
    options.fault_schedule = schedule;
    (void)learn_skeleton(instance.data.num_vars(), test, options, *engine);
    const std::vector<RecoveryEvent>& events =
        *process_engine_recovery_events(*engine);
    EXPECT_EQ(events.empty(), schedule.empty())
        << "schedule=" << schedule << "\n" << describe_events(events);
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << "schedule=" << schedule;
    EXPECT_EQ(errno, ECHILD) << "schedule=" << schedule;
  }
}

TEST(ProcessEngine, OneShotFrameFaultFiresOncePerRun) {
  // The supervisor keeps one fault injector per rank across the run's
  // forks, so a one-shot frame fault fires on the first reply it arms
  // for and never again in that rank generation — not once per depth's
  // child. The instance reaches depth 2 or more, so rank 1 sends several
  // replies.
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  PcOptions options = process_options(2);
  options.fault_schedule = "corrupt-frame@rank=1,depth=0;seed=7";
  const FaultRun run = run_process(instance, options);
  ASSERT_GE(run.depth_stats.size(), 3u);
  EXPECT_EQ(std::count_if(run.events.begin(), run.events.end(),
                          [](const RecoveryEvent& event) {
                            return event.action == RecoveryAction::kRetransmit;
                          }),
            1)
      << describe_events(run.events);
}

TEST(ProcessEngine, DoubleRankDeathInOneDepthRecoversBothRanks) {
  const fuzz::FuzzInstance instance = fuzz::make_instance(3);
  const fuzz::SkeletonFingerprint reference = sequential_fingerprint(instance);
  PcOptions options = process_options(2);
  options.fault_schedule = "kill@rank=0,depth=1;kill@rank=1,depth=1";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kRespawn, 0))
      << describe_events(run.events);
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kRespawn, 1))
      << describe_events(run.events);
}

TEST(ProcessEngine, DeathAtDepthZeroBeforeAnyBarrierRecovers) {
  // The first child of the run dies: the respawn re-runs its depth-0
  // list before any depth has committed.
  const fuzz::FuzzInstance instance = fuzz::make_instance(5);
  const fuzz::SkeletonFingerprint reference = sequential_fingerprint(instance);
  PcOptions options = process_options(2);
  options.fault_schedule = "kill@rank=1,depth=0";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  ASSERT_FALSE(run.depth_stats.empty());
  EXPECT_GT(run.depth_stats.front().recoveries, 0)
      << describe_events(run.events);
}

TEST(ProcessEngine, RespawnedRankDyingDuringRecoveryUsesTheNextRestart) {
  // gen=1 events target the first respawn: the replacement dies while
  // re-running the lost list and a second respawn finishes it.
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  const fuzz::SkeletonFingerprint reference = sequential_fingerprint(instance);
  PcOptions options = process_options(2);
  options.max_rank_restarts = 2;
  options.fault_schedule = "kill@rank=1,depth=1;kill@rank=1,depth=1,gen=1";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  const auto respawns = std::count_if(
      run.events.begin(), run.events.end(), [](const RecoveryEvent& event) {
        return event.action == RecoveryAction::kRespawn;
      });
  EXPECT_EQ(respawns, 2) << describe_events(run.events);
}

TEST(ProcessEngine, RestartBudgetExhaustionRepartitionsOntoSurvivors) {
  // max_rank_restarts=0: a dead rank goes straight to re-partition. The
  // depth's next round re-deals its list over the survivors, later
  // depths deal over the survivors alone, and the result is still
  // bit-identical. At 3 and 4 ranks several survivors share the list;
  // once a single survivor is left it runs every later depth whole.
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  const struct {
    std::int32_t ranks;
    const char* schedule;
    std::vector<int> retired;
  } cases[] = {
      {2, "kill@rank=1,depth=1", {1}},
      {3, "kill@rank=1,depth=1", {1}},
      {4, "kill@rank=1,depth=1", {1}},
      // Two retirements in one depth: the next round re-deals both lists
      // onto the one survivor.
      {3, "kill@rank=0,depth=1;kill@rank=2,depth=1", {0, 2}},
  };
  for (const auto& fault : cases) {
    PcOptions options = process_options(fault.ranks);
    options.max_rank_restarts = 0;
    options.fault_schedule = fault.schedule;
    const FaultRun run = run_process(instance, options);
    const std::string label = "ranks=" + std::to_string(fault.ranks) +
                              " schedule=" + fault.schedule;
    EXPECT_TRUE(run.fingerprint == reference)
        << label << ": "
        << fuzz::describe_divergence(reference, run.fingerprint,
                                     instance.data.num_vars());
    EXPECT_EQ(run.result.total_ci_tests, reference_tests) << label;
    EXPECT_FALSE(has_action(run.events, RecoveryAction::kRespawn))
        << label << "\n" << describe_events(run.events);
    const auto repartitions = [&](int rank) {
      return std::count_if(
          run.events.begin(), run.events.end(),
          [&](const RecoveryEvent& event) {
            return event.action == RecoveryAction::kRepartition &&
                   (rank == -2 || event.rank == rank);
          });
    };
    EXPECT_EQ(repartitions(-2), std::ssize(fault.retired))
        << label << "\n" << describe_events(run.events);
    for (const int rank : fault.retired) {
      EXPECT_EQ(repartitions(rank), 1)
          << label << " rank=" << rank << "\n" << describe_events(run.events);
    }
    if (fault.ranks - std::ssize(fault.retired) != 1) continue;
    int later_depths = 0;
    for (const ProcessDepthStats& stats : run.depth_stats) {
      if (stats.depth <= 1) continue;
      ++later_depths;
      EXPECT_EQ(stats.max_rank_tests, stats.ci_tests)
          << label << " depth=" << stats.depth;
    }
    EXPECT_GT(later_depths, 0) << label;
  }
}

/// A degraded run still reports one ProcessDepthStats row per driver
/// depth, with the depth's test count — the degrade rung runs every
/// remaining depth itself, so the telemetry never goes quiet.
void expect_one_stats_row_per_depth(const FaultRun& run) {
  ASSERT_EQ(run.depth_stats.size(), run.result.depth_stats.size())
      << describe_events(run.events);
  for (std::size_t d = 0; d < run.depth_stats.size(); ++d) {
    EXPECT_EQ(run.depth_stats[d].depth, run.result.depth_stats[d].depth);
    EXPECT_EQ(run.depth_stats[d].ci_tests, run.result.depth_stats[d].ci_tests)
        << "depth " << d;
  }
}

TEST(ProcessEngine, InitialSpawnFailureDegradesInProcess) {
  // spawn-fail with gen=0 declares the whole first fork failed: the run
  // must complete in-process (the degrade rung) with identical results.
  // At 2 ranks x 4 threads, 8 threads claim works from one cursor in the
  // driver process.
  const fuzz::FuzzInstance instance = fuzz::make_instance(7);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  for (const std::int32_t rank_threads : {1, 4}) {
    PcOptions options = process_options(2, rank_threads);
    options.fault_schedule = "spawn-fail";
    const FaultRun run = run_process(instance, options);
    EXPECT_TRUE(run.fingerprint == reference)
        << "rank_threads=" << rank_threads << ": "
        << fuzz::describe_divergence(reference, run.fingerprint,
                                     instance.data.num_vars());
    EXPECT_EQ(run.result.total_ci_tests, reference_tests)
        << "rank_threads=" << rank_threads;
    EXPECT_TRUE(has_action(run.events, RecoveryAction::kDegrade))
        << describe_events(run.events);
    expect_one_stats_row_per_depth(run);
    // No rank replied, so no depth has a busiest reply.
    for (const ProcessDepthStats& stats : run.depth_stats) {
      EXPECT_EQ(stats.max_rank_tests, 0) << "depth " << stats.depth;
    }
  }
}

TEST(ProcessEngine, RespawnFailureMidRunDegradesAndStillFinishes) {
  // The rank dies, and its respawn is declared failed: the supervisor
  // finishes the depth locally and runs the rest of the run in-process —
  // completion, not an abort.
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  PcOptions options = process_options(2);
  options.fault_schedule = "kill@rank=1,depth=1;spawn-fail@rank=1,gen=1";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  EXPECT_EQ(run.result.total_ci_tests, reference_tests);
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kDegrade, 1))
      << describe_events(run.events);
  expect_one_stats_row_per_depth(run);
}

TEST(ProcessEngine, RoundRobinDealSplitsDepthZeroEvenly) {
  // Depth 0 deals the words of the pair bitmap: W = ceil(P / 64) words
  // over P = n(n-1)/2 pairs of one marginal test each, every word 64
  // pairs but the last. Rank r of R runs words r, r + R, r + 2R, ..., so
  // the busiest rank runs the largest of those sums. At every depth the
  // busiest reply lies between an even share and the whole depth.
  const fuzz::FuzzInstance instance = fuzz::make_instance(5);
  const std::int64_t n = instance.data.num_vars();
  const std::int64_t pairs = n * (n - 1) / 2;
  const std::int64_t words = (pairs + 63) / 64;
  for (const std::int32_t ranks : {2, 3}) {
    std::int64_t busiest = 0;
    for (std::int64_t rank = 0; rank < ranks; ++rank) {
      std::int64_t share = 0;
      for (std::int64_t w = rank; w < words; w += ranks) {
        share += std::min<std::int64_t>(64, pairs - 64 * w);
      }
      busiest = std::max(busiest, share);
    }
    const FaultRun run = run_process(instance, process_options(ranks));
    ASSERT_TRUE(run.events.empty()) << describe_events(run.events);
    ASSERT_FALSE(run.depth_stats.empty());
    const ProcessDepthStats& first = run.depth_stats.front();
    EXPECT_EQ(first.depth, 0);
    EXPECT_EQ(first.ci_tests, pairs) << "ranks=" << ranks;
    EXPECT_EQ(first.max_rank_tests, busiest) << "ranks=" << ranks;
    for (const ProcessDepthStats& stats : run.depth_stats) {
      EXPECT_LE(stats.max_rank_tests, stats.ci_tests)
          << "ranks=" << ranks << " depth=" << stats.depth;
      EXPECT_GE(stats.max_rank_tests * ranks, stats.ci_tests)
          << "ranks=" << ranks << " depth=" << stats.depth;
    }
  }
}

TEST(ProcessEngine, RecoveryEventsAccessorSeesOnlyProcessEngines) {
  const auto sequential = EngineRegistry::instance().create("fastbns-seq");
  EXPECT_EQ(process_engine_recovery_events(*sequential), nullptr);
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  // A fault-free run reports an empty (but present) event list.
  const FaultRun clean = run_process(instance, process_options(2));
  EXPECT_TRUE(clean.events.empty()) << describe_events(clean.events);
  for (const ProcessDepthStats& stats : clean.depth_stats) {
    EXPECT_EQ(stats.recoveries, 0);
  }
}

TEST(ProcessEngine, ChildExceptionsPropagateWithTheirMessage) {
  // A CI test that throws inside a rank must surface in the parent as a
  // runtime_error carrying the child's message — the kTagError path —
  // not as a mysterious rank death.
  class FailingTest final : public CiTest {
   public:
    CiResult test(VarId, VarId, std::span<const VarId>) override {
      throw std::runtime_error("synthetic rank-side CI failure");
    }
    [[nodiscard]] std::unique_ptr<CiTest> clone() const override {
      return std::make_unique<FailingTest>();
    }
  };
  const FailingTest test;
  try {
    (void)learn_skeleton(8, test, process_options(2));
    FAIL() << "expected the child's exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("synthetic rank-side CI failure"),
              std::string::npos)
        << error.what();
  }
}

TEST(ProcessEngine, RankResolutionRulesAreStable) {
  EXPECT_EQ(resolve_rank_count(3), 3);
  EXPECT_EQ(resolve_rank_count(1), 1);
  // Auto: two ranks, or one on a single-cpu box — never zero.
  const std::int32_t auto_ranks = resolve_rank_count(0);
  EXPECT_GE(auto_ranks, 1);
  EXPECT_LE(auto_ranks, 2);
  EXPECT_EQ(resolve_rank_threads(5, 2, 0), 5);
  // Explicit budget 8 over 4 ranks → 2 threads each; a budget smaller
  // than the rank count still gives every rank one thread.
  EXPECT_EQ(resolve_rank_threads(0, 4, 8), 2);
  EXPECT_EQ(resolve_rank_threads(0, 8, 4), 1);
}

TEST(ProcessEngine, DepthStatsAccessorSeesOnlyProcessEngines) {
  const auto process = EngineRegistry::instance().create("process");
  ASSERT_NE(process, nullptr);
  const auto sequential = EngineRegistry::instance().create("fastbns-seq");
  EXPECT_EQ(process_engine_depth_stats(*sequential), nullptr);
  // A fresh process engine has an empty (but present) stats vector; after
  // a run it carries one entry per executed depth with the depth's test
  // count.
  const auto* empty_stats = process_engine_depth_stats(*process);
  ASSERT_NE(empty_stats, nullptr);
  EXPECT_TRUE(empty_stats->empty());
  const fuzz::FuzzInstance instance = fuzz::make_instance(5);
  const DiscreteCiTest test(instance.data, CiTestOptions{});
  const SkeletonResult result = learn_skeleton(
      instance.data.num_vars(), test, process_options(2), *process);
  const auto* stats = process_engine_depth_stats(*process);
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->size(), result.depth_stats.size());
  std::int64_t total = 0;
  for (std::size_t d = 0; d < stats->size(); ++d) {
    EXPECT_EQ((*stats)[d].depth, result.depth_stats[d].depth);
    EXPECT_EQ((*stats)[d].ci_tests, result.depth_stats[d].ci_tests);
    EXPECT_GE((*stats)[d].seconds, (*stats)[d].gather_seconds);
    total += (*stats)[d].ci_tests;
  }
  EXPECT_EQ(total, result.total_ci_tests);
}

}  // namespace
}  // namespace fastbns
