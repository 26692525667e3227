// Workload construction shared by all benches: Table II networks plus
// forward-sampled datasets, and the scale policy that keeps the default
// bench run tractable on small CI machines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "network/bayesian_network.hpp"

namespace fastbns {

struct Workload {
  std::string name;
  BayesianNetwork network;
  /// Runtime-kinded: Table II workloads are discrete; the Gaussian bench
  /// builds continuous ones. Benches that need the raw store go through
  /// data.discrete() / data.continuous().
  Dataset data;
};

/// Samples `num_samples` rows from the named Table II network (fixed seed
/// per (name, samples) pair). Layout kBoth so every engine/ablation can
/// run on the same object. Throws on unknown names.
[[nodiscard]] Workload make_workload(const std::string& name, Count num_samples,
                                     DataLayout layout = DataLayout::kBoth);

/// FASTBNS_BENCH_SCALE=paper selects the full Table II grid; anything else
/// (default "small") uses a reduced grid sized for a laptop/CI box: the
/// first five Table II networks (link, munin2 and munin3 are left out),
/// comparison_samples capped at 2000 and thread_grid stopping at 8. A CI
/// test's cost is linear in the sample count, so fewer samples scale
/// every engine alike and keep their order.
enum class BenchScale { kSmall, kPaper };
[[nodiscard]] BenchScale bench_scale();
[[nodiscard]] const char* to_string(BenchScale scale);

/// Networks for the overall-comparison experiments at this scale.
[[nodiscard]] std::vector<std::string> comparison_networks(BenchScale scale);

/// Sample count for a network at this scale (paper value vs reduced).
[[nodiscard]] Count comparison_samples(BenchScale scale, Count paper_samples);

/// Thread grid {1, 2, 4, 8, 16, 32}, truncated at small scale to avoid
/// heavy oversubscription noise.
[[nodiscard]] std::vector<int> thread_grid(BenchScale scale);

}  // namespace fastbns
