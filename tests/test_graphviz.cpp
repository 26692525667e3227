#include "graph/graphviz.hpp"

#include <gtest/gtest.h>

namespace fastbns {
namespace {

TEST(Graphviz, DagUsesDigraphAndArrows) {
  Dag dag(3);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  const std::string dot = to_dot(dag);
  EXPECT_NE(dot.find("digraph G {"), std::string::npos);
  EXPECT_NE(dot.find("\"V0\" -> \"V1\";"), std::string::npos);
  EXPECT_NE(dot.find("\"V1\" -> \"V2\";"), std::string::npos);
}

TEST(Graphviz, NamesUsedWhenProvided) {
  Dag dag(2);
  dag.add_edge(0, 1);
  const std::string dot = to_dot(dag, {"Rain", "Wet"});
  EXPECT_NE(dot.find("\"Rain\" -> \"Wet\";"), std::string::npos);
}

TEST(Graphviz, PartialNamesFallBackToIds) {
  Dag dag(2);
  dag.add_edge(0, 1);
  const std::string dot = to_dot(dag, {"OnlyFirst"});
  EXPECT_NE(dot.find("\"OnlyFirst\" -> \"V1\";"), std::string::npos);
}

TEST(Graphviz, QuoteInANameIsEscaped) {
  Dag dag(2);
  dag.add_edge(0, 1);
  const std::string dot = to_dot(dag, {"\"A\"", "B\"2"});
  EXPECT_NE(dot.find(R"("\"A\"" -> "B\"2";)"), std::string::npos) << dot;
}

TEST(Graphviz, BackslashInANameIsEscaped) {
  UndirectedGraph graph(2);
  graph.add_edge(0, 1);
  const std::string dot = to_dot(graph, {"A\\", "\\B"});
  EXPECT_NE(dot.find(R"("A\\" -- "\\B";)"), std::string::npos) << dot;
}

TEST(Graphviz, PdagRendersBothEdgeKinds) {
  Pdag pdag(3);
  pdag.add_directed(0, 1);
  pdag.add_undirected(1, 2);
  const std::string dot = to_dot(pdag);
  EXPECT_NE(dot.find("\"V0\" -> \"V1\";"), std::string::npos);
  EXPECT_NE(dot.find("\"V1\" -> \"V2\" [dir=none];"), std::string::npos);
}

TEST(Graphviz, UndirectedGraphUsesGraphSyntax) {
  UndirectedGraph graph(2);
  graph.add_edge(0, 1);
  const std::string dot = to_dot(graph);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("\"V0\" -- \"V1\";"), std::string::npos);
}

TEST(Graphviz, EmptyGraphStillValidDot) {
  const std::string dot = to_dot(Dag(0));
  EXPECT_EQ(dot, "digraph G {\n}\n");
}

}  // namespace
}  // namespace fastbns
