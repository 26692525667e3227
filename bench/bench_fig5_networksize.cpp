// Figure 5: scalability to the network size — speedup of Fast-BNS-par
// over Fast-BNS-seq across the six evaluation networks at 5000 samples.
//
// Shape to reproduce: larger networks achieve larger speedups (more edges
// in flight keep every thread busy claiming works), while the small
// networks (sub-second learning) are limited by parallel overhead.
#include <cstdio>

#include "bench_util/reporting.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "common/args.hpp"
#include "common/omp_utils.hpp"

int main(int argc, char** argv) {
  using namespace fastbns;
  ArgParser args("bench_fig5_networksize",
                 "Figure 5: Fast-BNS-par speedup over Fast-BNS-seq across "
                 "network sizes");
  args.add_flag("networks", "comma list; empty = scale default", "");
  args.add_flag("samples", "samples per network; 0 = scale default", "0");
  args.add_flag("threads", "threads for the parallel engine; 0 = all", "0");
  if (!args.parse(argc, argv)) return 1;

  const BenchScale scale = bench_scale();
  std::vector<std::string> networks = args.get_list("networks");
  if (networks.empty()) {
    networks = scale == BenchScale::kPaper
                   ? std::vector<std::string>{"alarm", "insurance", "hepar2",
                                              "munin1", "diabetes", "link"}
                   : std::vector<std::string>{"alarm", "insurance", "hepar2",
                                              "munin1", "diabetes"};
  }
  int threads = args.get_int32("threads");
  if (threads == 0) threads = hardware_threads();

  std::printf("Figure 5 reproduction (scale=%s, t=%d)\n", to_string(scale),
              threads);
  TablePrinter table(
      {"Data set", "nodes", "samples", "seq(s)", "par(s)", "speedup"});

  for (const std::string& name : networks) {
    Count samples = args.get_int("samples");
    if (samples == 0) samples = comparison_samples(scale, 5000);
    std::printf("[run] %s (%lld samples)\n", name.c_str(),
                static_cast<long long>(samples));
    std::fflush(stdout);
    const Workload workload = make_workload(name, samples);
    const double seq = run_skeleton_best(workload, fastbns_seq_config()).seconds;
    const double par =
        run_skeleton_best(workload, fastbns_par_config(threads)).seconds;
    table.add_row({name, std::to_string(workload.data.num_vars()),
                   std::to_string(samples), TablePrinter::num(seq, 4),
                   TablePrinter::num(par, 4),
                   TablePrinter::num(seq / par, 2)});
  }

  emit_table("Figure 5: speedup vs network size", "fig5_networksize", table);
  std::printf(
      "\nShape check vs paper: speedups grow with network size (paper:\n"
      "6.9/6.4 on Alarm/Insurance up to 19.3 on Diabetes at 32 threads of\n"
      "a 52-core box); small networks are overhead-bound.\n");
  return 0;
}
