#include "network/random_network.hpp"

#include <gtest/gtest.h>

namespace fastbns {
namespace {

TEST(RandomNetwork, MatchesRequestedCounts) {
  RandomNetworkConfig config;
  config.num_nodes = 50;
  config.num_edges = 80;
  config.seed = 1;
  const BayesianNetwork network = generate_random_network(config);
  EXPECT_EQ(network.num_nodes(), 50);
  EXPECT_EQ(network.num_edges(), 80);
  EXPECT_TRUE(network.dag().is_acyclic());
  EXPECT_TRUE(network.valid());
}

TEST(RandomNetwork, RespectsMaxParents) {
  RandomNetworkConfig config;
  config.num_nodes = 30;
  config.num_edges = 70;
  config.max_parents = 3;
  config.seed = 2;
  const BayesianNetwork network = generate_random_network(config);
  for (VarId v = 0; v < network.num_nodes(); ++v) {
    EXPECT_LE(network.dag().in_degree(v), 3);
  }
}

TEST(RandomNetwork, RespectsCardinalityRange) {
  RandomNetworkConfig config;
  config.num_nodes = 40;
  config.num_edges = 50;
  config.min_cardinality = 2;
  config.max_cardinality = 4;
  config.seed = 3;
  const BayesianNetwork network = generate_random_network(config);
  for (VarId v = 0; v < network.num_nodes(); ++v) {
    EXPECT_GE(network.variable(v).cardinality, 2);
    EXPECT_LE(network.variable(v).cardinality, 4);
  }
}

TEST(RandomNetwork, DeterministicPerSeed) {
  RandomNetworkConfig config;
  config.num_nodes = 25;
  config.num_edges = 35;
  config.seed = 4;
  const BayesianNetwork a = generate_random_network(config);
  const BayesianNetwork b = generate_random_network(config);
  EXPECT_TRUE(a.dag() == b.dag());
  EXPECT_EQ(a.cardinalities(), b.cardinalities());
  // CPT values must match as well.
  for (VarId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(a.cpt(v).probability(0, 0), b.cpt(v).probability(0, 0));
  }
}

TEST(RandomNetwork, DifferentSeedsProduceDifferentStructures) {
  RandomNetworkConfig config;
  config.num_nodes = 25;
  config.num_edges = 35;
  config.seed = 5;
  const BayesianNetwork a = generate_random_network(config);
  config.seed = 6;
  const BayesianNetwork b = generate_random_network(config);
  EXPECT_FALSE(a.dag() == b.dag());
}

TEST(RandomNetwork, LocalityWindowBoundsParentDistance) {
  RandomNetworkConfig config;
  config.num_nodes = 200;
  config.num_edges = 250;
  config.locality_window = 10;
  config.seed = 7;
  const BayesianNetwork network = generate_random_network(config);
  EXPECT_EQ(network.num_edges(), 250);
  EXPECT_TRUE(network.dag().is_acyclic());
}

TEST(RandomNetwork, InfeasibleEdgeCountThrows) {
  RandomNetworkConfig config;
  config.num_nodes = 5;
  config.num_edges = 100;  // > C(5,2) under any constraint
  EXPECT_THROW((void)generate_random_network(config), std::invalid_argument);
}

TEST(RandomNetwork, ZeroNodesThrows) {
  RandomNetworkConfig config;
  config.num_nodes = 0;
  EXPECT_THROW((void)generate_random_network(config), std::invalid_argument);
}

TEST(RandomNetwork, LargeScaleGenerationIsFeasible) {
  RandomNetworkConfig config;
  config.num_nodes = 1041;  // munin3-sized (Table II)
  config.num_edges = 1306;
  config.locality_window = 40;
  config.seed = 8;
  const BayesianNetwork network = generate_random_network(config);
  EXPECT_EQ(network.num_nodes(), 1041);
  EXPECT_EQ(network.num_edges(), 1306);
  EXPECT_TRUE(network.dag().is_acyclic());
}

}  // namespace
}  // namespace fastbns
