// Multi-process engine sweep: wall time of the fork-based ranks (ranks x
// threads-per-rank) against the sequential reference on the paper's
// benchmark networks, plus the per-depth barrier telemetry the engine
// records — how much of each depth is rank compute and how much is the
// forks, reaps and exchange around it.
//
// Every configuration must report the identical CI-test and edge count
// (the result-identity claim); the table makes that visible next to the
// timings. The depth rows decompose the widest configuration: `Seconds`
// is the whole depth, `Gather s` the span from the first child forked to
// the last reply merged, `Max rank s` the slowest child's self-reported
// compute — gather minus max-rank approximates the fork, reap,
// serialization and pipe cost of the barrier — and `Max rank tests` the
// busiest child's executed tests, against `CI tests` for the whole depth.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/reporting.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "common/args.hpp"
#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "engine/engine_registry.hpp"
#include "engine/process_engine.hpp"
#include "pc/skeleton.hpp"
#include "stats/discrete_ci_test.hpp"

namespace {

using namespace fastbns;

constexpr const char* kAll = "-";  // Depth column value for whole-run rows

void add_run_row(TablePrinter& table, const std::string& network,
                 const std::string& config, std::int32_t ranks,
                 std::int32_t rank_threads, const EngineRunResult& result,
                 double seq_seconds, const std::string& recovery_overhead) {
  table.add_row(
      {network, config, std::to_string(ranks), std::to_string(rank_threads),
       kAll, TablePrinter::num(result.seconds, 4), kAll, kAll, kAll,
       std::to_string(result.ci_tests), std::to_string(result.edges),
       TablePrinter::num(seq_seconds / result.seconds, 2), recovery_overhead});
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_process_ranks",
                 "fork-based rank-group sweep (ranks x threads-per-rank) "
                 "with per-depth barrier timings");
  args.add_flag("samples", "samples; 0 = scale default", "0");
  if (!args.parse(argc, argv)) return 1;

  const BenchScale scale = bench_scale();
  Count samples = args.get_int("samples");
  if (samples == 0) samples = comparison_samples(scale, 5000);

  const std::vector<std::int32_t> rank_grid = {1, 2, 4};
  const std::vector<std::int32_t> rank_thread_grid = {1, 2};
  set_bench_rank_context(rank_grid.back(), "fork+pipe");

  TablePrinter table({"Network", "Config", "Ranks", "Threads/rank", "Depth",
                      "Seconds", "Gather s", "Max rank s", "Max rank tests",
                      "CI tests", "Edges", "Speedup vs seq",
                      "Recovery overhead"});

  for (const char* network : {"alarm", "insurance"}) {
    std::printf("[run] %s, %lld samples\n", network,
                static_cast<long long>(samples));
    std::fflush(stdout);
    const Workload workload = make_workload(network, samples);

    const EngineRunResult seq =
        run_skeleton_best(workload, fastbns_seq_config());
    add_run_row(table, network, "fastbns-seq", 0, 0, seq, seq.seconds, kAll);

    EngineRunResult widest_clean;
    for (const std::int32_t ranks : rank_grid) {
      for (const std::int32_t rank_threads : rank_thread_grid) {
        EngineRunConfig config =
            engine_config_from_name("process", ranks * rank_threads);
        config.rank_count = ranks;
        config.rank_threads = rank_threads;
        const EngineRunResult result = run_skeleton_best(workload, config);
        add_run_row(table, network, "process", ranks, rank_threads, result,
                    seq.seconds, kAll);
        if (ranks == rank_grid.back() &&
            rank_threads == rank_thread_grid.back()) {
          widest_clean = result;
        }
      }
    }

    // Recovery overhead: the same widest configuration with a
    // deterministic rank-1 death injected at depth 1 — the supervisor
    // must fork the dead child's list again and re-run its works. `Recovery overhead` is faulted/clean wall
    // time; the CI-test and edge columns prove the recovered run stays
    // bit-identical to the fault-free one.
    {
      EngineRunConfig faulted = engine_config_from_name(
          "process", rank_grid.back() * rank_thread_grid.back());
      faulted.rank_count = rank_grid.back();
      faulted.rank_threads = rank_thread_grid.back();
      faulted.fault_schedule = "kill@rank=1,depth=1";
      const EngineRunResult result = run_skeleton_best(workload, faulted);
      if (result.ci_tests != seq.ci_tests || result.edges != seq.edges) {
        std::fprintf(stderr,
                     "recovered run diverged from fastbns-seq on %s: "
                     "%lld/%lld tests, %lld/%lld edges\n",
                     network, static_cast<long long>(result.ci_tests),
                     static_cast<long long>(seq.ci_tests),
                     static_cast<long long>(result.edges),
                     static_cast<long long>(seq.edges));
        return 1;
      }
      add_run_row(table, network, "process+kill@r1d1", rank_grid.back(),
                  rank_thread_grid.back(), result, seq.seconds,
                  TablePrinter::num(result.seconds / widest_clean.seconds, 2));
    }

    // Per-depth barrier decomposition at the widest configuration, with
    // a caller-supplied engine so its telemetry survives the run.
    const std::int32_t ranks = rank_grid.back();
    const std::int32_t rank_threads = rank_thread_grid.back();
    const auto engine = EngineRegistry::instance().create("process");
    const DiscreteCiTest test(workload.data.discrete(), CiTestOptions{});
    PcOptions options;
    options.engine = EngineKind::kProcess;
    options.rank_count = ranks;
    options.rank_threads = rank_threads;
    (void)learn_skeleton(workload.data.num_vars(), test, options, *engine);
    const std::vector<ProcessDepthStats>* stats =
        process_engine_depth_stats(*engine);
    if (stats == nullptr) {
      std::fprintf(stderr, "process engine exposes no depth stats\n");
      return 1;
    }
    for (const ProcessDepthStats& depth : *stats) {
      table.add_row({network, "process/depth", std::to_string(ranks),
                     std::to_string(rank_threads), std::to_string(depth.depth),
                     TablePrinter::num(depth.seconds, 4),
                     TablePrinter::num(depth.gather_seconds, 4),
                     TablePrinter::num(depth.max_rank_seconds, 4),
                     std::to_string(depth.max_rank_tests),
                     std::to_string(depth.ci_tests), kAll, kAll, kAll});
    }
  }

  emit_table("Multi-process rank sweep (per-depth fork + pipe gather)",
             "process_ranks", table);
  return 0;
}
