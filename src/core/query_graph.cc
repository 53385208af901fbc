#include "core/query_graph.h"

#include <cstdlib>

namespace biorank {

Status QueryGraph::Validate() const {
  if (!graph.IsValidNode(source)) {
    return Status::InvalidArgument("query graph: source node is not alive");
  }
  std::vector<bool> seen(static_cast<size_t>(graph.node_capacity()), false);
  for (NodeId a : answers) {
    if (!graph.IsValidNode(a)) {
      return Status::InvalidArgument("query graph: answer node " +
                                     std::to_string(a) + " is not alive");
    }
    if (a == source) {
      return Status::InvalidArgument(
          "query graph: source cannot be an answer");
    }
    if (seen[static_cast<size_t>(a)]) {
      return Status::InvalidArgument("query graph: duplicate answer node " +
                                     std::to_string(a));
    }
    seen[static_cast<size_t>(a)] = true;
  }
  return Status::OK();
}

QueryGraphBuilder::QueryGraphBuilder() {
  source_ = query_graph_.graph.AddNode(1.0, "query", "Query");
  query_graph_.source = source_;
}

NodeId QueryGraphBuilder::Node(double p, std::string label,
                               std::string entity_set) {
  return query_graph_.graph.AddNode(p, std::move(label),
                                    std::move(entity_set));
}

EdgeId QueryGraphBuilder::Edge(NodeId from, NodeId to, double q) {
  Result<EdgeId> result = query_graph_.graph.AddEdge(from, to, q);
  if (!result.ok()) {
    // Builder misuse in a test or example is a programming error.
    std::abort();
  }
  return result.value();
}

QueryGraph QueryGraphBuilder::Build(std::vector<NodeId> answers) && {
  query_graph_.answers = std::move(answers);
  return std::move(query_graph_);
}

QueryGraph MakeFig4aSerialParallel() {
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId m = b.Node(1.0, "m");
  NodeId a = b.Node(1.0, "a");
  NodeId bb = b.Node(1.0, "b");
  NodeId u = b.Node(1.0, "u");
  b.Edge(s, m, 0.5);
  b.Edge(m, a, 1.0);
  b.Edge(m, bb, 1.0);
  b.Edge(a, u, 1.0);
  b.Edge(bb, u, 1.0);
  return std::move(b).Build({u});
}

QueryGraph MakeFig4bWheatstoneBridge() {
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId a = b.Node(1.0, "a");
  NodeId bb = b.Node(1.0, "b");
  NodeId u = b.Node(1.0, "u");
  b.Edge(s, a, 0.5);
  b.Edge(s, bb, 0.5);
  b.Edge(a, bb, 0.5);  // The bridge.
  b.Edge(a, u, 0.5);
  b.Edge(bb, u, 0.5);
  return std::move(b).Build({u});
}

}  // namespace biorank
