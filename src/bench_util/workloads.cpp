#include "bench_util/workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/rng.hpp"
#include "network/forward_sampler.hpp"
#include "network/standard_networks.hpp"

namespace fastbns {

Workload make_workload(const std::string& name, Count num_samples,
                       DataLayout layout) {
  auto network = benchmark_network(name);
  if (!network.has_value()) {
    throw std::invalid_argument("make_workload: unknown network " + name);
  }
  // Seed mixes the network name hash and sample count so each workload is
  // deterministic yet distinct.
  std::uint64_t seed = 0xC0FFEE ^ static_cast<std::uint64_t>(num_samples);
  for (const char c : name) seed = seed * 131 + static_cast<unsigned char>(c);
  Rng rng(seed);
  DiscreteDataset data = forward_sample(*network, num_samples, rng, layout);
  return Workload{name, std::move(*network), Dataset(std::move(data))};
}

BenchScale bench_scale() {
  const char* env = std::getenv("FASTBNS_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "paper") == 0) {
    return BenchScale::kPaper;
  }
  return BenchScale::kSmall;
}

const char* to_string(BenchScale scale) {
  return scale == BenchScale::kPaper ? "paper" : "small";
}

std::vector<std::string> comparison_networks(BenchScale scale) {
  if (scale == BenchScale::kPaper) {
    return {"alarm", "insurance", "hepar2", "munin1",
            "diabetes", "link", "munin2", "munin3"};
  }
  return {"alarm", "insurance", "hepar2", "munin1", "diabetes"};
}

Count comparison_samples(BenchScale scale, Count paper_samples) {
  if (scale == BenchScale::kPaper) return paper_samples;
  // Small scale: cap at 2000 samples — CI-test cost scales linearly in m,
  // so relative engine orderings are unchanged.
  return std::min<Count>(paper_samples, 2000);
}

std::vector<int> thread_grid(BenchScale scale) {
  if (scale == BenchScale::kPaper) return {1, 2, 4, 8, 16, 32};
  return {1, 2, 4, 8};
}

}  // namespace fastbns
