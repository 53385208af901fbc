#include "core/reliability_bounds.h"

#include <vector>

#include "core/graph_algo.h"
#include "core/propagation.h"
#include "core/reliability_exact.h"

namespace biorank {

Result<ReliabilityBounds> BoundReliability(
    const QueryGraph& query_graph, NodeId target,
    const ReliabilityBoundsOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  if (!query_graph.graph.IsValidNode(target)) {
    return Status::InvalidArgument("bounds: invalid target");
  }
  if (options.max_paths < 1) {
    return Status::InvalidArgument("bounds: max_paths must be >= 1");
  }

  ReliabilityBounds bounds;

  // Upper bound: propagation dominates reliability on every graph.
  Result<IterativeScores> propagation = Propagate(query_graph);
  if (!propagation.ok()) return propagation.status();
  bounds.upper = std::min(1.0, propagation.value().scores[target]);

  // Lower bound: exact reliability of the union of the k strongest
  // paths. Connectivity within the sub-event implies connectivity in the
  // full graph, so this never overestimates.
  ExplanationOptions explain;
  explain.max_paths = options.max_paths;
  Result<std::vector<EvidencePath>> paths =
      ExplainAnswer(query_graph, target, explain);
  if (!paths.ok()) return paths.status();
  bounds.paths_used = static_cast<int>(paths.value().size());
  if (paths.value().empty()) {
    bounds.lower = 0.0;
    bounds.upper = 0.0;  // Unreachable: reliability is exactly 0.
    return bounds;
  }

  const QueryGraph sub = EvidencePathUnion(query_graph, target, paths.value());
  Result<double> exact = ExactReliabilityFactoring(sub, sub.answers[0]);
  if (!exact.ok()) return exact.status();
  bounds.lower = exact.value();
  if (bounds.lower > bounds.upper) bounds.upper = bounds.lower;  // Rounding.
  return bounds;
}

QueryGraph EvidencePathUnion(const QueryGraph& query_graph, NodeId target,
                             const std::vector<EvidencePath>& paths) {
  std::vector<bool> keep(query_graph.graph.node_capacity(), false);
  for (const EvidencePath& path : paths) {
    for (NodeId node : path.nodes) keep[node] = true;
  }
  // Build the union subgraph, keeping only edges on some chosen path.
  std::vector<bool> keep_edge(query_graph.graph.edge_capacity(), false);
  for (const EvidencePath& path : paths) {
    for (EdgeId e : path.edges) keep_edge[e] = true;
  }
  QueryGraph sub;
  std::vector<NodeId> mapping(query_graph.graph.node_capacity(),
                              kInvalidNode);
  for (NodeId i = 0; i < query_graph.graph.node_capacity(); ++i) {
    if (!query_graph.graph.IsValidNode(i) || !keep[i]) continue;
    const GraphNode& node = query_graph.graph.node(i);
    mapping[i] = sub.graph.AddNode(node.p, node.label, node.entity_set);
  }
  for (EdgeId e = 0; e < query_graph.graph.edge_capacity(); ++e) {
    if (!query_graph.graph.IsValidEdge(e) || !keep_edge[e]) continue;
    const GraphEdge& edge = query_graph.graph.edge(e);
    sub.graph.AddEdge(mapping[edge.from], mapping[edge.to], edge.q).value();
  }
  sub.source = mapping[query_graph.source];
  sub.answers = {mapping[target]};
  return sub;
}

}  // namespace biorank
