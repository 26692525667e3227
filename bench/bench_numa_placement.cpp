// NUMA placement on/off: wall time of the process engine under rank
// pinning + first-touch, and the two-domain cache-simulator replay that
// makes the placement claim machine-checkable on any box.
//
// Placement cannot be *measured* on the single-socket machines this
// reproduction targets (and real timing deltas would be interconnect
// noise anyway), so the bench has two halves:
//  * a timing sweep (placement forced vs off x rank counts x threads)
//    under a FASTBNS_NUMA-simulated topology — demonstrating the whole
//    engine path runs end-to-end with identical results either way and
//    costing out the placement machinery itself (it must be ~free);
//  * a replay of a run's steady-state CI-test trace (depths >= 1)
//    through the two-domain cache model (replay_trace_numa):
//    placement-on homes every variable's pages on its owning rank's
//    domain and executes each call there (pinned ranks), placement-off
//    models the no-placement reality — pages first-touched wherever the
//    allocating thread ran (all on domain 0: the master thread builds
//    the dataset) and unpinned calls landing on either domain. The
//    placement-on row must show strictly fewer remote DRAM accesses.
//    Depth 0 is excluded on purpose: its complete-graph sweep streams
//    every pair exactly once, so no variable partition can make it local
//    — the placement win is the iterated depths, whose conditioning sets
//    are drawn from the (owner-clustered) adjacency. The trace comes
//    from the sequential engine, which runs every work in canonical
//    order, so it is exactly the call stream the ranks split between
//    them.
#include <cstdio>
#include <cstdlib>

#include "bench_util/reporting.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "cachesim/access_replay.hpp"
#include "cachesim/trace_ci_test.hpp"
#include "common/args.hpp"
#include "common/omp_utils.hpp"
#include "pc/edge_work.hpp"
#include "pc/skeleton.hpp"
#include "stats/discrete_ci_test.hpp"
#include "topology/placement.hpp"

namespace {

using namespace fastbns;

std::vector<TracedCiCall> record_trace(const Workload& workload) {
  auto trace = std::make_shared<CiTrace>();
  const TracingCiTest prototype(
      std::make_unique<DiscreteCiTest>(workload.data.discrete(),
                                       CiTestOptions{}),
      trace);
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  (void)learn_skeleton(workload.data.num_vars(), prototype, options);
  return trace->snapshot();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_numa_placement",
                 "NUMA placement on/off: process-engine timing under a "
                 "simulated topology, plus the two-domain cache-simulator "
                 "replay of a run's CI-test trace");
  args.add_flag("network", "Table II network", "munin1");
  args.add_flag("samples", "samples; 0 = scale default", "0");
  args.add_flag("domains", "simulated NUMA domains", "2");
  if (!args.parse(argc, argv)) return 1;

  // The demonstration topology: honour a caller-provided FASTBNS_NUMA,
  // otherwise simulate --domains nodes by splitting the real affinity
  // mask (pinning stays real syscalls where the box has the cpus).
  const std::int32_t domains =
      static_cast<std::int32_t>(args.get_int("domains"));
  if (std::getenv("FASTBNS_NUMA") == nullptr) {
    setenv("FASTBNS_NUMA", std::to_string(domains).c_str(), 0);
  }
  const NumaTopology topology = NumaTopology::detect();
  std::printf("[topology] %s\n", topology.describe().c_str());

  const BenchScale scale = bench_scale();
  Count samples = args.get_int("samples");
  if (samples == 0) samples = comparison_samples(scale, 5000);
  const std::string network = args.get("network");
  std::printf("[run] %s, %lld samples\n", network.c_str(),
              static_cast<long long>(samples));
  std::fflush(stdout);
  const Workload workload = make_workload(network, samples);

  set_bench_pinning_policy("forced-vs-off");
  TablePrinter table({"Mode", "Ranks", "Threads", "Seconds", "CI tests",
                      "Edges", "Local DRAM", "Remote DRAM", "Remote %"});

  // -- Timing sweep: the placement machinery end-to-end. --------------
  std::vector<int> threads_grid = {1};
  if (hardware_threads() > 1) threads_grid.push_back(hardware_threads());
  for (const std::int32_t ranks : {2, 4}) {
    for (const int threads : threads_grid) {
      for (const char* policy : {"off", "forced"}) {
        EngineRunConfig config = engine_config_from_name("process", threads);
        config.rank_count = ranks;
        config.numa_policy = policy;
        const EngineRunResult result = run_skeleton_best(workload, config);
        table.add_row({std::string("time/") + policy,
                       std::to_string(ranks), std::to_string(threads),
                       TablePrinter::num(result.seconds, 4),
                       std::to_string(result.ci_tests),
                       std::to_string(result.edges), "-", "-", "-"});
      }
    }
  }

  // -- Two-domain replay: the machine-checked placement claim. --------
  const std::int32_t ranks = 4;
  const std::vector<TracedCiCall> full_trace = record_trace(workload);
  std::vector<TracedCiCall> trace;
  for (const TracedCiCall& call : full_trace) {
    if (!call.z.empty()) trace.push_back(call);  // steady state only
  }
  std::printf("[run] traced %zu CI tests (%zu steady-state) for the replay\n",
              full_trace.size(), trace.size());
  std::fflush(stdout);

  const VarId num_vars = workload.data.num_vars();
  const VariableShards shards(num_vars, ranks);
  const NumaTopology two_domains = NumaTopology::simulated(2, 1);
  const ShardPlacement placement =
      plan_shard_placement(NumaPolicy::kForced, ranks, two_domains);

  NumaReplayConfig config;
  config.base.num_samples = workload.data.num_samples();
  config.base.num_vars = num_vars;
  config.base.value_bytes = 1;
  config.base.column_major = true;
  // Capacity-limited last level (half the dataset, floor 64KB): with the
  // default 16MB LL the whole dataset is cache-resident and only
  // compulsory misses reach DRAM, which would understate what placement
  // is for — steady-state streaming under capacity pressure.
  const std::size_t dataset_bytes = static_cast<std::size_t>(num_vars) *
                                    static_cast<std::size_t>(samples);
  config.base.last_level = {std::max<std::size_t>(64 * 1024, dataset_bytes / 2),
                            64, 16};
  config.num_domains = 2;
  // Placement changes two couplings at once, and the comparison models
  // both: *where pages live* (first-touch by the master thread on domain
  // 0 vs first-touch by each rank's pinned owner) and *where calls run*
  // (unpinned threads migrating across domains — modelled as calls
  // alternating domains, which also duplicates cache footprint across
  // both hierarchies — vs every edge's calls pinned to its owning
  // rank's domain). The placed row therefore wins twice over: fewer
  // total DRAM fallthroughs (cache affinity) and a smaller remote share
  // of them (page locality).
  std::vector<std::int32_t> owner_domain(static_cast<std::size_t>(num_vars));
  for (VarId v = 0; v < num_vars; ++v) {
    owner_domain[static_cast<std::size_t>(v)] =
        placement.shard_domain[static_cast<std::size_t>(shards.shard_of(v))];
  }
  for (const bool placed : {false, true}) {
    config.exec_domain.assign(trace.size(), 0);
    if (placed) {
      config.var_domain = owner_domain;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const VarId home = std::min(trace[i].x, trace[i].y);
        config.exec_domain[i] = owner_domain[static_cast<std::size_t>(home)];
      }
    } else {
      config.var_domain.assign(static_cast<std::size_t>(num_vars), 0);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        config.exec_domain[i] = static_cast<std::int32_t>(i % 2);
      }
    }
    const NumaReplayResult result = replay_trace_numa(trace, config);
    table.add_row({placed ? "replay/placed" : "replay/unplaced",
                   std::to_string(ranks), "2", "-", "-", "-",
                   std::to_string(result.local_dram_accesses),
                   std::to_string(result.remote_dram_accesses),
                   TablePrinter::num(result.remote_fraction() * 100.0, 2)});
  }

  emit_table("NUMA placement: timing under " + topology.describe() +
                 " + two-domain replay",
             "numa_placement", table);
  std::printf(
      "\nShape check: time/forced tracks time/off (the placement pass is\n"
      "one prefault sweep), and replay/placed shows strictly fewer remote\n"
      "DRAM accesses than replay/unplaced.\n");
  return 0;
}
