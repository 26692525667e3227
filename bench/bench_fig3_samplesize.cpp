// Figure 3: scalability to the sample size — speedup of Fast-BNS-par over
// Fast-BNS-seq for 5k/10k/15k samples across thread counts.
//
// Shape to reproduce: speedup grows smoothly with threads at every sample
// size, and larger sample sizes achieve slightly higher speedups (each CI
// test carries more work, amortizing parallel overhead better).
#include <cstdio>

#include "bench_util/reporting.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "common/args.hpp"

int main(int argc, char** argv) {
  using namespace fastbns;
  ArgParser args("bench_fig3_samplesize",
                 "Figure 3: Fast-BNS-par speedup over Fast-BNS-seq at "
                 "different sample sizes");
  args.add_flag("networks", "comma list; empty = scale default", "");
  args.add_flag("sizes", "sample sizes", "5000,10000,15000");
  args.add_flag("threads", "thread grid; empty = scale default", "");
  if (!args.parse(argc, argv)) return 1;

  const BenchScale scale = bench_scale();
  std::vector<std::string> networks = args.get_list("networks");
  if (networks.empty()) {
    networks = scale == BenchScale::kPaper
                   ? std::vector<std::string>{"alarm", "insurance", "hepar2",
                                              "munin1"}
                   : std::vector<std::string>{"alarm", "insurance"};
  }
  std::vector<int> threads;
  for (const auto t : args.get_int_list("threads")) {
    threads.push_back(static_cast<int>(t));
  }
  if (threads.empty()) threads = thread_grid(scale);

  std::printf("Figure 3 reproduction (scale=%s)\n", to_string(scale));
  TablePrinter table({"Data set", "samples", "threads", "seq(s)", "par(s)",
                      "speedup"});

  for (const std::string& name : networks) {
    for (const auto size : args.get_int_list("sizes")) {
      std::printf("[run] %s with %lld samples\n", name.c_str(),
                  static_cast<long long>(size));
      std::fflush(stdout);
      const Workload workload = make_workload(name, size);
      const double seq = run_skeleton_best(workload, fastbns_seq_config()).seconds;
      for (const int t : threads) {
        const double par =
            run_skeleton_best(workload, fastbns_par_config(t)).seconds;
        table.add_row({name, std::to_string(size), std::to_string(t),
                       TablePrinter::num(seq, 4), TablePrinter::num(par, 4),
                       TablePrinter::num(seq / par, 2)});
      }
    }
  }

  emit_table("Figure 3: speedup vs sample size", "fig3_samplesize", table);
  std::printf(
      "\nShape check vs paper: smooth speedup growth with threads at every\n"
      "sample size; larger sample sizes reach slightly higher speedups.\n"
      "(Paper reached 8-12x on 32 threads of a 52-core box; a machine with\n"
      "fewer cores saturates at its core count.)\n");
  return 0;
}
