#include "graph/graphviz.hpp"

#include <sstream>

namespace fastbns {
namespace {

/// A DOT quoted ID: `"` and `\` inside the name are backslash-escaped.
std::string label(VarId v, const std::vector<std::string>& names) {
  if (static_cast<std::size_t>(v) < names.size() && !names[v].empty()) {
    std::string quoted = "\"";
    for (const char c : names[v]) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return quoted + '"';
  }
  return "\"V" + std::to_string(v) + "\"";
}

}  // namespace

std::string to_dot(const Dag& dag, const std::vector<std::string>& names) {
  std::ostringstream out;
  out << "digraph G {\n";
  for (const auto& [from, to] : dag.edges()) {
    out << "  " << label(from, names) << " -> " << label(to, names) << ";\n";
  }
  out << "}\n";
  return out.str();
}

std::string to_dot(const Pdag& pdag, const std::vector<std::string>& names) {
  std::ostringstream out;
  out << "digraph G {\n";
  for (const auto& [from, to] : pdag.directed_edges()) {
    out << "  " << label(from, names) << " -> " << label(to, names) << ";\n";
  }
  for (const auto& [u, v] : pdag.undirected_edges()) {
    out << "  " << label(u, names) << " -> " << label(v, names)
        << " [dir=none];\n";
  }
  out << "}\n";
  return out.str();
}

std::string to_dot(const UndirectedGraph& graph,
                   const std::vector<std::string>& names) {
  std::ostringstream out;
  out << "graph G {\n";
  for (const auto& [u, v] : graph.edges()) {
    out << "  " << label(u, names) << " -- " << label(v, names) << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace fastbns
