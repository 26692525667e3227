// Graphviz DOT export for learned structures (used by the examples so a
// user can render what PC-stable recovered).
#pragma once

#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "graph/pdag.hpp"
#include "graph/undirected_graph.hpp"

namespace fastbns {

/// Names may be empty, in which case nodes are labelled V0..Vn-1. A `"`
/// or `\` inside a name is backslash-escaped in its quoted label.
[[nodiscard]] std::string to_dot(const Dag& dag,
                                 const std::vector<std::string>& names = {});
[[nodiscard]] std::string to_dot(const Pdag& pdag,
                                 const std::vector<std::string>& names = {});
[[nodiscard]] std::string to_dot(const UndirectedGraph& graph,
                                 const std::vector<std::string>& names = {});

}  // namespace fastbns
