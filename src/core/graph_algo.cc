#include "core/graph_algo.h"

#include <algorithm>
#include <sstream>

#include "util/strings.h"

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

std::vector<bool> CoReachable(const ProbabilisticEntityGraph& graph,
                              NodeId target) {
  std::vector<bool> visited(graph.node_capacity(), false);
  if (!graph.IsValidNode(target)) return visited;
  std::vector<NodeId> stack = {target};
  visited[target] = true;
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    graph.ForEachInEdge(x, [&](EdgeId e) {
      NodeId y = graph.edge(e).from;
      if (!visited[y]) {
        visited[y] = true;
        stack.push_back(y);
      }
    });
  }
  return visited;
}

Result<std::vector<NodeId>> TopologicalOrder(
    const ProbabilisticEntityGraph& graph) {
  // Kahn's algorithm over alive nodes.
  int capacity = graph.node_capacity();
  std::vector<int> in_degree(capacity, 0);
  std::vector<NodeId> queue;
  for (NodeId i = 0; i < capacity; ++i) {
    if (!graph.IsValidNode(i)) continue;
    in_degree[i] = graph.InDegree(i);
    if (in_degree[i] == 0) queue.push_back(i);
  }
  std::vector<NodeId> order;
  order.reserve(graph.num_nodes());
  for (size_t head = 0; head < queue.size(); ++head) {
    NodeId x = queue[head];
    order.push_back(x);
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      NodeId y = graph.edge(e).to;
      if (--in_degree[y] == 0) queue.push_back(y);
    });
  }
  if (static_cast<int>(order.size()) != graph.num_nodes()) {
    return Status::FailedPrecondition("graph has a cycle");
  }
  return order;
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

Result<int> LongestPathLengthFrom(const ProbabilisticEntityGraph& graph,
                                  NodeId source) {
  if (HasCycleReachableFrom(graph, source)) {
    return Status::FailedPrecondition(
        "longest path undefined: cycle reachable from source");
  }
  std::vector<bool> reachable = ReachableFrom(graph, source);
  Result<std::vector<NodeId>> order = TopologicalOrder(graph);
  std::vector<NodeId> topo;
  if (order.ok()) {
    topo = order.value();
  } else {
    // A cycle exists somewhere unreachable from the source; order the
    // reachable sub-DAG only.
    std::vector<NodeId> old_to_new;
    ProbabilisticEntityGraph sub =
        InducedSubgraph(graph, reachable, &old_to_new);
    Result<std::vector<NodeId>> sub_order = TopologicalOrder(sub);
    if (!sub_order.ok()) return sub_order.status();
    // Map dense ids back to the original ids.
    std::vector<NodeId> new_to_old(sub.node_capacity(), kInvalidNode);
    for (NodeId i = 0; i < graph.node_capacity(); ++i) {
      if (old_to_new.size() > static_cast<size_t>(i) &&
          old_to_new[i] != kInvalidNode) {
        new_to_old[old_to_new[i]] = i;
      }
    }
    for (NodeId dense : sub_order.value()) topo.push_back(new_to_old[dense]);
  }
  std::vector<int> depth(graph.node_capacity(), -1);
  depth[source] = 0;
  int longest = 0;
  for (NodeId x : topo) {
    if (x == kInvalidNode || !reachable[x] || depth[x] < 0) continue;
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      NodeId y = graph.edge(e).to;
      if (depth[x] + 1 > depth[y]) {
        depth[y] = depth[x] + 1;
        longest = std::max(longest, depth[y]);
      }
    });
  }
  return longest;
}

ProbabilisticEntityGraph InducedSubgraph(const ProbabilisticEntityGraph& graph,
                                         const std::vector<bool>& keep,
                                         std::vector<NodeId>* old_to_new) {
  ProbabilisticEntityGraph sub;
  std::vector<NodeId> mapping(graph.node_capacity(), kInvalidNode);
  for (NodeId i = 0; i < graph.node_capacity(); ++i) {
    if (!graph.IsValidNode(i)) continue;
    if (static_cast<size_t>(i) < keep.size() && keep[i]) {
      const GraphNode& node = graph.node(i);
      mapping[i] = sub.AddNode(node.p, node.label, node.entity_set);
    }
  }
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    NodeId from = mapping[edge.from];
    NodeId to = mapping[edge.to];
    if (from != kInvalidNode && to != kInvalidNode) {
      sub.AddEdge(from, to, edge.q).value();
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(mapping);
  return sub;
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
  std::vector<NodeId> old_to_new;
  QueryGraph result;
  result.graph = InducedSubgraph(graph, keep, &old_to_new);
  result.source = old_to_new[query_graph.source];
  for (NodeId t : answers) {
    if (graph.IsValidNode(t)) result.answers.push_back(old_to_new[t]);
  }
  return result;
}

std::string ToDot(const QueryGraph& query_graph) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  std::vector<bool> is_answer(graph.node_capacity(), false);
  for (NodeId t : query_graph.answers) {
    if (t >= 0 && t < graph.node_capacity()) is_answer[t] = true;
  }
  std::ostringstream os;
  os << "digraph biorank {\n  rankdir=LR;\n";
  for (NodeId i : graph.AliveNodes()) {
    const GraphNode& node = graph.node(i);
    std::string label = node.label.empty() ? std::to_string(i) : node.label;
    os << "  n" << i << " [label=\"" << label << "\\np="
       << FormatCompact(node.p, 3) << "\"";
    if (i == query_graph.source) {
      os << ", shape=box, style=filled, fillcolor=lightblue";
    } else if (is_answer[i]) {
      os << ", shape=doublecircle, style=filled, fillcolor=mistyrose";
    }
    os << "];\n";
  }
  for (EdgeId e : graph.AliveEdges()) {
    const GraphEdge& edge = graph.edge(e);
    os << "  n" << edge.from << " -> n" << edge.to << " [label=\""
       << FormatCompact(edge.q, 3) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace biorank
