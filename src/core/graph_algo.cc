#include "core/graph_algo.h"

namespace biorank {

std::vector<bool> ReachableFrom(const ProbabilisticEntityGraph& graph,
                                NodeId start) {
  std::vector<bool> visited(graph.node_capacity(), false);
  if (!graph.IsValidNode(start)) return visited;
  std::vector<NodeId> stack = {start};
  visited[start] = true;
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      NodeId y = graph.edge(e).to;
      if (!visited[y]) {
        visited[y] = true;
        stack.push_back(y);
      }
    });
  }
  return visited;
}

bool HasCycleReachableFrom(const ProbabilisticEntityGraph& graph,
                           NodeId start) {
  if (!graph.IsValidNode(start)) return false;
  // Iterative three-color DFS restricted to nodes reachable from start.
  enum Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(graph.node_capacity(), kWhite);
  // Stack frames: (node, next-edge-cursor over OutEdges snapshot).
  struct Frame {
    NodeId node;
    std::vector<EdgeId> edges;
    size_t cursor = 0;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{start, graph.OutEdges(start)});
  color[start] = kGray;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.cursor >= frame.edges.size()) {
      color[frame.node] = kBlack;
      stack.pop_back();
      continue;
    }
    NodeId y = graph.edge(frame.edges[frame.cursor++]).to;
    if (color[y] == kGray) return true;
    if (color[y] == kWhite) {
      color[y] = kGray;
      stack.push_back(Frame{y, graph.OutEdges(y)});
    }
  }
  return false;
}

QueryGraph RestrictToQueryRelevantSubgraph(const QueryGraph& query_graph,
                                           const std::vector<NodeId>& answers,
                                           std::vector<bool>* kept_nodes) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  std::vector<bool> reach = ReachableFrom(graph, query_graph.source);
  std::vector<bool> keep(graph.node_capacity(), false);
  keep[query_graph.source] = true;
  // Union over answers of CoReach(t), intersected with Reach(source).
  std::vector<bool> wanted(graph.node_capacity(), false);
  for (NodeId t : answers) {
    if (!graph.IsValidNode(t)) continue;
    wanted[t] = true;
  }
  // One backward BFS from all answers at once.
  std::vector<NodeId> stack;
  std::vector<bool> co(graph.node_capacity(), false);
  for (NodeId t : answers) {
    if (graph.IsValidNode(t) && !co[t]) {
      co[t] = true;
      stack.push_back(t);
    }
  }
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    graph.ForEachInEdge(x, [&](EdgeId e) {
      NodeId y = graph.edge(e).from;
      if (!co[y]) {
        co[y] = true;
        stack.push_back(y);
      }
    });
  }
  for (NodeId i = 0; i < graph.node_capacity(); ++i) {
    if (!graph.IsValidNode(i)) continue;
    if ((reach[i] && co[i]) || wanted[i]) keep[i] = true;
  }
  if (kept_nodes != nullptr) *kept_nodes = keep;
  // Copy the kept nodes in ascending id order, then the alive edges
  // between them in ascending EdgeId order (the CSR snapshot's numbering).
  QueryGraph result;
  std::vector<NodeId> old_to_new(graph.node_capacity(), kInvalidNode);
  for (NodeId i = 0; i < graph.node_capacity(); ++i) {
    if (!graph.IsValidNode(i) || !keep[i]) continue;
    const GraphNode& node = graph.node(i);
    old_to_new[i] = result.graph.AddNode(node.p, node.label, node.entity_set);
  }
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    NodeId from = old_to_new[edge.from];
    NodeId to = old_to_new[edge.to];
    if (from != kInvalidNode && to != kInvalidNode) {
      result.graph.AddEdge(from, to, edge.q).value();
    }
  }
  result.source = old_to_new[query_graph.source];
  for (NodeId t : answers) {
    if (graph.IsValidNode(t)) result.answers.push_back(old_to_new[t]);
  }
  return result;
}

}  // namespace biorank
