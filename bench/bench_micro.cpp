// Microbenchmarks (google-benchmark) for the hot building blocks:
// contingency-table construction under both layouts, the group-protocol
// code reuse, small tables whose statistic weighs as much as their
// counting, combination unranking against its successor, and
// d-separation.
#include <benchmark/benchmark.h>

#include <array>
#include <span>
#include <vector>

#include "combinatorics/combination.hpp"
#include "common/rng.hpp"
#include "graph/dseparation.hpp"
#include "network/forward_sampler.hpp"
#include "network/random_network.hpp"
#include "network/standard_networks.hpp"
#include "stats/discrete_ci_test.hpp"

namespace {

using namespace fastbns;

const DiscreteDataset& alarm_data() {
  static const DiscreteDataset data = [] {
    const BayesianNetwork alarm = alarm_network();
    Rng rng(1);
    return forward_sample(alarm, 10000, rng, DataLayout::kBoth);
  }();
  return data;
}

void BM_CiTestColumnMajor(benchmark::State& state) {
  const DiscreteDataset& data = alarm_data();
  DiscreteCiTest test(data, {});
  const std::vector<VarId> z{2, 10};
  for (auto _ : state) {
    benchmark::DoNotOptimize(test.test(4, 5, z));
  }
  state.SetItemsProcessed(state.iterations() * data.num_samples());
}
BENCHMARK(BM_CiTestColumnMajor);

void BM_CiTestRowMajor(benchmark::State& state) {
  const DiscreteDataset& data = alarm_data();
  CiTestOptions options;
  options.use_row_major = true;
  DiscreteCiTest test(data, options);
  const std::vector<VarId> z{2, 10};
  for (auto _ : state) {
    benchmark::DoNotOptimize(test.test(4, 5, z));
  }
  state.SetItemsProcessed(state.iterations() * data.num_samples());
}
BENCHMARK(BM_CiTestRowMajor);

void BM_CiTestGroupReuse(benchmark::State& state) {
  // Endpoint codes computed once per group of gs tests.
  const DiscreteDataset& data = alarm_data();
  DiscreteCiTest test(data, {});
  const std::vector<std::vector<VarId>> sets = {{2}, {10}, {12}, {20}};
  for (auto _ : state) {
    test.begin_group(4, 5);
    for (const auto& z : sets) {
      benchmark::DoNotOptimize(test.test_in_group(z));
    }
  }
  state.SetItemsProcessed(state.iterations() * sets.size());
}
BENCHMARK(BM_CiTestGroupReuse);

void BM_CiTestNoGroupReuse(benchmark::State& state) {
  const DiscreteDataset& data = alarm_data();
  DiscreteCiTest test(data, {});
  const std::vector<std::vector<VarId>> sets = {{2}, {10}, {12}, {20}};
  for (auto _ : state) {
    for (const auto& z : sets) {
      benchmark::DoNotOptimize(test.test(4, 5, z));
    }
  }
  state.SetItemsProcessed(state.iterations() * sets.size());
}
BENCHMARK(BM_CiTestNoGroupReuse);

/// Shaped like perfbench's wide-g2: a random network of cardinality 2-3
/// variables, 800 samples.
const DiscreteDataset& wide_data() {
  static const DiscreteDataset data = [] {
    RandomNetworkConfig config;
    config.num_nodes = 60;
    config.num_edges = 90;
    config.min_cardinality = 2;
    config.max_cardinality = 3;
    config.seed = 1500;
    Rng rng(1);
    return forward_sample(generate_random_network(config), 800, rng);
  }();
  return data;
}

/// One test per iteration through the group protocol, each on a new
/// endpoint pair as in a learn's depths 0 and 1, with `depth`
/// conditioning variables: tables of 4 to 27 cells, whose G^2 costs
/// about as much as counting them.
void small_table_tests(benchmark::State& state, std::size_t depth) {
  const DiscreteDataset& data = wide_data();
  DiscreteCiTest test(data, {});
  const VarId n = data.num_vars();
  VarId x = 0;
  for (auto _ : state) {
    const VarId y = (x + 1) % n;
    const std::array<VarId, 1> z{(x + 2) % n};
    test.begin_group(x, y);
    benchmark::DoNotOptimize(
        test.test_in_group(std::span<const VarId>(z.data(), depth)));
    x = (x + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SmallTableDepth0(benchmark::State& state) {
  small_table_tests(state, 0);
}
BENCHMARK(BM_SmallTableDepth0);

void BM_SmallTableDepth1(benchmark::State& state) {
  small_table_tests(state, 1);
}
BENCHMARK(BM_SmallTableDepth1);

void BM_UnrankCombination(benchmark::State& state) {
  const auto p = static_cast<std::int32_t>(state.range(0));
  const std::int32_t q = 3;
  const std::uint64_t total = binomial(p, q);
  std::vector<std::int32_t> out(q);
  std::uint64_t rank = 0;
  for (auto _ : state) {
    unrank_combination(p, q, rank % total, out);
    benchmark::DoNotOptimize(out.data());
    rank += 7919;
  }
}
BENCHMARK(BM_UnrankCombination)->Arg(16)->Arg(64)->Arg(256);

void BM_NextCombination(benchmark::State& state) {
  const auto p = static_cast<std::int32_t>(state.range(0));
  std::vector<std::int32_t> combination{0, 1, 2};
  for (auto _ : state) {
    if (!next_combination(p, combination)) {
      combination = {0, 1, 2};
    }
    benchmark::DoNotOptimize(combination.data());
  }
}
BENCHMARK(BM_NextCombination)->Arg(16)->Arg(64)->Arg(256);

void BM_DSeparation(benchmark::State& state) {
  const BayesianNetwork alarm = alarm_network();
  const std::vector<VarId> given{5, 20};
  VarId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        d_separated(alarm.dag(), x % 37, (x * 7 + 3) % 37, given));
    ++x;
  }
}
BENCHMARK(BM_DSeparation);

}  // namespace

BENCHMARK_MAIN();
