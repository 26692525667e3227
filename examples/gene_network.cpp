// High-dimensional causal discovery, the setting the paper's introduction
// motivates (gene-regulatory-network inference, cf. its refs [12], [13]):
// hundreds of variables, sparse structure, constraint-based learning as
// the only tractable option.
//
// We synthesize a sparse "expression" network of --genes regulators and
// targets, discretize expression into low/medium/high, and measure how
// Fast-BNS scales where a naive implementation struggles.
#include <cstdio>

#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "common/args.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/engine_registry.hpp"
#include "graph/graph_metrics.hpp"
#include "network/forward_sampler.hpp"
#include "network/random_network.hpp"
#include "pc/pc_stable.hpp"

int main(int argc, char** argv) {
  using namespace fastbns;
  ArgParser args("gene_network",
                 "high-dimensional sparse causal discovery scenario");
  args.add_flag("genes", "number of genes (variables)", "300");
  args.add_flag("interactions", "number of regulatory edges", "420");
  args.add_flag("samples", "number of expression profiles", "2000");
  args.add_flag("threads", "worker threads (0 = all)", "0");
  args.add_flag("engine", "parallel engine for the discovery run",
                "fastbns-par(ci-level)");
  if (!args.parse(argc, argv)) return 1;

  // 1. Synthesize the regulatory network: sparse, locally connected,
  //    three expression levels per gene.
  RandomNetworkConfig config;
  config.num_nodes = args.get_int32("genes");
  config.num_edges = args.get_int("interactions");
  config.max_parents = 3;               // regulators per gene
  config.min_cardinality = 3;           // low / medium / high expression
  config.max_cardinality = 3;
  config.locality_window = 25;          // regulatory modules are local
  config.seed = 99;
  const BayesianNetwork truth = generate_random_network(config);
  std::printf("synthetic regulatory network: %d genes, %lld interactions\n",
              truth.num_nodes(), static_cast<long long>(truth.num_edges()));

  // 2. Simulated expression profiles.
  Rng rng(100);
  const DiscreteDataset profiles =
      forward_sample(truth, args.get_int("samples"), rng);

  // 3. Structure discovery with the selected parallel engine.
  PcOptions options;
  try {
    options.engine = engine_from_string(args.get("engine"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gene_network: %s\n", error.what());
    return 1;
  }
  options.num_threads = args.get_int32("threads");
  const WallTimer timer;
  const PcStableResult result = learn_structure(profiles, options);
  std::printf("%s: %.3f s, %lld CI tests, max depth %d\n",
              to_string(options.engine).c_str(), timer.seconds(),
              static_cast<long long>(result.skeleton.total_ci_tests),
              result.skeleton.max_depth_reached);

  // 4. Discovery quality.
  const SkeletonMetrics metrics =
      compare_skeletons(result.skeleton.graph, truth.dag().skeleton());
  std::printf(
      "interaction recovery: precision %.3f, recall %.3f, F1 %.3f\n",
      metrics.precision(), metrics.recall(), metrics.f1());
  std::printf("oriented %lld of %lld recovered interactions\n",
              static_cast<long long>(result.cpdag.num_directed_edges()),
              static_cast<long long>(result.cpdag.num_directed_edges() +
                                     result.cpdag.num_undirected_edges()));

  // 5. Contrast with the sequential engine on the same problem, to show
  //    why CI-level parallelism matters at this dimensionality.
  PcOptions sequential = options;
  sequential.engine = EngineKind::kFastSequential;
  const WallTimer seq_timer;
  (void)learn_structure(profiles, sequential);
  const double seq_seconds = seq_timer.seconds();
  std::printf(
      "Fast-BNS-seq on the same data: %.3f s (parallel speedup %.2fx; "
      "grows with cores and problem size)\n",
      seq_seconds, seq_seconds / result.total_seconds);
  return 0;
}
