#include "network/forward_sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "network/random_network.hpp"

namespace fastbns {
namespace {

BayesianNetwork chain_network() {
  std::vector<Variable> variables(2);
  variables[0] = {"X", 2};
  variables[1] = {"Y", 2};
  Dag dag(2);
  dag.add_edge(0, 1);
  BayesianNetwork network(std::move(variables), std::move(dag));
  // P(X=1) = 0.3; P(Y=1|X=0)=0.1, P(Y=1|X=1)=0.9.
  network.mutable_cpt(0).set_probability(0, 0, 0.7);
  network.mutable_cpt(0).set_probability(0, 1, 0.3);
  network.mutable_cpt(1).set_probability(0, 0, 0.9);
  network.mutable_cpt(1).set_probability(0, 1, 0.1);
  network.mutable_cpt(1).set_probability(1, 0, 0.1);
  network.mutable_cpt(1).set_probability(1, 1, 0.9);
  return network;
}

TEST(ForwardSampler, ShapeAndRange) {
  const BayesianNetwork network = chain_network();
  Rng rng(1);
  const DiscreteDataset data = forward_sample(network, 500, rng);
  EXPECT_EQ(data.num_vars(), 2);
  EXPECT_EQ(data.num_samples(), 500);
  // The dataset keeps every value below these, so they bound the range.
  EXPECT_EQ(data.cardinalities(), network.cardinalities());
  EXPECT_TRUE(data.has_column_major());
}

TEST(ForwardSampler, DeterministicPerSeed) {
  const BayesianNetwork network = chain_network();
  Rng rng_a(42), rng_b(42);
  const DiscreteDataset a = forward_sample(network, 100, rng_a);
  const DiscreteDataset b = forward_sample(network, 100, rng_b);
  for (Count s = 0; s < 100; ++s) {
    for (VarId v = 0; v < 2; ++v) {
      EXPECT_EQ(a.value(s, v), b.value(s, v));
    }
  }
}

TEST(ForwardSampler, MarginalsMatchRootCpt) {
  const BayesianNetwork network = chain_network();
  Rng rng(3);
  const DiscreteDataset data = forward_sample(network, 30000, rng);
  Count x_ones = 0;
  for (Count s = 0; s < data.num_samples(); ++s) x_ones += data.value(s, 0);
  EXPECT_NEAR(static_cast<double>(x_ones) / data.num_samples(), 0.3, 0.01);
}

TEST(ForwardSampler, ConditionalsMatchChildCpt) {
  const BayesianNetwork network = chain_network();
  Rng rng(5);
  const DiscreteDataset data = forward_sample(network, 30000, rng);
  Count x1 = 0, y1_given_x1 = 0, x0 = 0, y1_given_x0 = 0;
  for (Count s = 0; s < data.num_samples(); ++s) {
    if (data.value(s, 0) == 1) {
      ++x1;
      y1_given_x1 += data.value(s, 1);
    } else {
      ++x0;
      y1_given_x0 += data.value(s, 1);
    }
  }
  EXPECT_NEAR(static_cast<double>(y1_given_x1) / x1, 0.9, 0.02);
  EXPECT_NEAR(static_cast<double>(y1_given_x0) / x0, 0.1, 0.02);
}

TEST(ForwardSampler, RequestedLayoutHonored) {
  const BayesianNetwork network = chain_network();
  Rng rng(7);
  const DiscreteDataset both =
      forward_sample(network, 10, rng, DataLayout::kBoth);
  EXPECT_TRUE(both.has_row_major());
  EXPECT_TRUE(both.has_column_major());
}

TEST(ForwardSampler, WorksOnGeneratedNetworks) {
  RandomNetworkConfig config;
  config.num_nodes = 20;
  config.num_edges = 30;
  config.seed = 9;
  const BayesianNetwork network = generate_random_network(config);
  Rng rng(11);
  const DiscreteDataset data = forward_sample(network, 200, rng);
  EXPECT_EQ(data.num_vars(), 20);
  EXPECT_EQ(data.cardinalities(), network.cardinalities());
}

TEST(ForwardSampler, ZeroSamples) {
  const BayesianNetwork network = chain_network();
  Rng rng(13);
  const DiscreteDataset data = forward_sample(network, 0, rng);
  EXPECT_EQ(data.num_samples(), 0);
}

}  // namespace
}  // namespace fastbns
