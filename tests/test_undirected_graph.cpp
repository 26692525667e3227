#include "graph/undirected_graph.hpp"

#include <gtest/gtest.h>

namespace fastbns {
namespace {

TEST(UndirectedGraph, EmptyGraph) {
  UndirectedGraph g(5);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(0), 0);
}

TEST(UndirectedGraph, AddAndRemove) {
  UndirectedGraph g(4);
  EXPECT_TRUE(g.add_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));  // symmetric
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 1);

  EXPECT_FALSE(g.add_edge(0, 2));  // duplicate
  EXPECT_FALSE(g.add_edge(2, 0));  // duplicate, reversed
  EXPECT_FALSE(g.add_edge(1, 1));  // self loop
  EXPECT_EQ(g.num_edges(), 1);

  EXPECT_TRUE(g.remove_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_FALSE(g.remove_edge(2, 0));  // already gone
}

TEST(UndirectedGraph, CompleteGraph) {
  const auto g = UndirectedGraph::complete(6);
  EXPECT_EQ(g.num_edges(), 15);  // n(n-1)/2
  for (VarId u = 0; u < 6; ++u) {
    EXPECT_EQ(g.degree(u), 5);
    for (VarId v = 0; v < 6; ++v) {
      EXPECT_EQ(g.has_edge(u, v), u != v);
    }
  }
}

TEST(UndirectedGraph, NeighborsAscending) {
  UndirectedGraph g(6);
  g.add_edge(3, 5);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  EXPECT_EQ(g.neighbors(3), (std::vector<VarId>{0, 4, 5}));
  EXPECT_EQ(g.neighbors(1), std::vector<VarId>{});
}

TEST(UndirectedGraph, EdgesSortedAndOrdered) {
  UndirectedGraph g(4);
  g.add_edge(2, 1);
  g.add_edge(3, 0);
  g.add_edge(0, 1);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (std::pair<VarId, VarId>{0, 1}));
  EXPECT_EQ(edges[1], (std::pair<VarId, VarId>{0, 3}));
  EXPECT_EQ(edges[2], (std::pair<VarId, VarId>{1, 2}));
}

TEST(UndirectedGraph, MeanDegree) {
  UndirectedGraph g(4);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 0.0);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 1.0);
}

TEST(UndirectedGraph, EqualityComparesEdgeSets) {
  UndirectedGraph a(3), b(3);
  a.add_edge(0, 1);
  EXPECT_FALSE(a == b);
  b.add_edge(1, 0);
  EXPECT_TRUE(a == b);
}

TEST(UndirectedGraph, ZeroNodeGraph) {
  const UndirectedGraph g(0);
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.edges().empty());
}

}  // namespace
}  // namespace fastbns
