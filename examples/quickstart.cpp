// Quickstart: sample data from the ALARM network, learn its structure
// back with Fast-BNS, and score the result against the ground truth.
//
//   ./quickstart [--samples N] [--threads T] [--alpha A]
#include <cstdio>

#include "common/args.hpp"
#include "common/csv_writer.hpp"
#include "common/rng.hpp"
#include "engine/engine_registry.hpp"
#include "graph/graph_metrics.hpp"
#include "graph/graphviz.hpp"
#include "network/forward_sampler.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"

int main(int argc, char** argv) {
  using namespace fastbns;
  ArgParser args("quickstart", "learn the ALARM network from sampled data");
  args.add_flag("samples", "number of samples to draw", "5000");
  args.add_flag("threads", "worker threads (0 = all)", "0");
  args.add_flag("engine", "skeleton engine (see list_engines)",
                "fastbns-par(ci-level)");
  args.add_flag("alpha", "significance level of the G2 test", "0.05");
  args.add_flag("dot", "write the learned CPDAG to this DOT file", "");
  if (!args.parse(argc, argv)) return 1;

  // 1. Ground truth: the published 37-node ALARM network.
  const BayesianNetwork alarm = alarm_network();
  std::printf("ALARM: %d nodes, %lld edges\n", alarm.num_nodes(),
              static_cast<long long>(alarm.num_edges()));

  // 2. Draw a complete dataset by ancestral sampling.
  Rng rng(2022);
  const DiscreteDataset data =
      forward_sample(alarm, args.get_int("samples"), rng);
  std::printf("sampled %lld rows\n",
              static_cast<long long>(data.num_samples()));

  // 3. Learn the structure with the selected engine (default: the
  //    parallel Fast-BNS engine).
  PcOptions options;
  try {
    options.engine = engine_from_string(args.get("engine"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "quickstart: %s\n", error.what());
    return 1;
  }
  options.num_threads = args.get_int32("threads");
  options.alpha = args.get_double("alpha");
  const PcStableResult result = learn_structure(data, options);

  std::printf(
      "learned in %.3f s: %lld CI tests over %d depths, "
      "%lld v-structures, %lld Meek orientations\n",
      result.total_seconds,
      static_cast<long long>(result.skeleton.total_ci_tests),
      result.skeleton.max_depth_reached + 1,
      static_cast<long long>(result.orientation.v_structures),
      static_cast<long long>(result.orientation.meek.total()));

  // 4. Score against the ground truth CPDAG.
  const Pdag truth = cpdag_of_dag(alarm.dag());
  const SkeletonMetrics metrics =
      compare_skeletons(result.skeleton.graph, alarm.dag().skeleton());
  std::printf("skeleton precision %.3f, recall %.3f, F1 %.3f\n",
              metrics.precision(), metrics.recall(), metrics.f1());
  std::printf("structural Hamming distance to the true CPDAG: %lld\n",
              static_cast<long long>(
                  structural_hamming_distance(result.cpdag, truth)));

  // 5. Show a few learned directed edges with their variable names.
  const auto names = alarm.variable_names();
  std::printf("examples of learned directed edges:\n");
  int shown = 0;
  for (const auto& [from, to] : result.cpdag.directed_edges()) {
    if (shown++ == 6) break;
    std::printf("  %s -> %s\n", names[from].c_str(), names[to].c_str());
  }

  const std::string dot_path = args.get("dot");
  if (!dot_path.empty()) {
    write_text_file(dot_path, to_dot(result.cpdag, names));
    std::printf("wrote %s (render with: dot -Tpng %s -o alarm.png)\n",
                dot_path.c_str(), dot_path.c_str());
  }
  return 0;
}
