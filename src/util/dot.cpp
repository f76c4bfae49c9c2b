#include "src/util/dot.hpp"

#include <cassert>
#include <sstream>

namespace streamcast::util {

namespace {

void emit_edges(std::ostringstream& out, const std::vector<int>& parent,
                const std::function<std::string(int)>& label,
                const std::string& prefix) {
  for (std::size_t i = 0; i < parent.size(); ++i) {
    out << "  \"" << prefix << i << "\" [label=\""
        << label(static_cast<int>(i)) << "\"];\n";
  }
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (parent[i] >= 0) {
      out << "  \"" << prefix << parent[i] << "\" -> \"" << prefix << i
          << "\";\n";
    }
  }
}

}  // namespace

std::string tree_to_dot(const std::string& name,
                        const std::vector<int>& parent,
                        const std::function<std::string(int)>& label) {
  std::ostringstream out;
  out << "digraph \"" << name << "\" {\n  rankdir=TB;\n"
      << "  node [shape=circle, fontsize=10];\n";
  emit_edges(out, parent, label, "");
  out << "}\n";
  return out.str();
}

std::string forest_to_dot(const std::string& name,
                          const std::vector<std::vector<int>>& parents,
                          const std::function<std::string(int)>& label) {
  std::ostringstream out;
  out << "digraph \"" << name << "\" {\n  rankdir=TB;\n"
      << "  node [shape=circle, fontsize=10];\n";
  for (std::size_t k = 0; k < parents.size(); ++k) {
    out << "  subgraph cluster_T" << k << " {\n    label=\"T_" << k
        << "\";\n";
    std::ostringstream inner;
    std::string prefix = "t";
    prefix += std::to_string(k);
    prefix += '_';
    emit_edges(inner, parents[k], label, prefix);
    // Indent the subgraph body for readability.
    std::istringstream lines(inner.str());
    std::string line;
    while (std::getline(lines, line)) out << "  " << line << '\n';
    out << "  }\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace streamcast::util
