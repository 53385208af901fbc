#include "core/explanation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

#include "util/strings.h"

namespace biorank {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// -log of a probability, with 0 mapped to +infinity (unusable element).
double Weight(double p) {
  if (p <= 0.0) return kInfinity;
  return -std::log(p);
}

/// Dijkstra over -log weights from `source` to `target`, avoiding the
/// node set `banned_nodes` and the edge set `banned_edges`, and forcing
/// the path to start with `prefix` (already-fixed nodes/edges whose cost
/// is `prefix_cost` and whose last node is `spur`). Returns the full path
/// or an empty one when unreachable.
struct DijkstraResult {
  EvidencePath path;
  bool found = false;
};

DijkstraResult ShortestFrom(const ProbabilisticEntityGraph& graph,
                            NodeId spur, NodeId target,
                            const std::vector<bool>& banned_nodes,
                            const std::set<EdgeId>& banned_edges) {
  int capacity = graph.node_capacity();
  std::vector<double> dist(capacity, kInfinity);
  std::vector<EdgeId> via_edge(capacity, -1);
  std::vector<NodeId> via_node(capacity, kInvalidNode);

  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  dist[spur] = 0.0;
  queue.push({0.0, spur});
  while (!queue.empty()) {
    auto [d, x] = queue.top();
    queue.pop();
    if (d > dist[x]) continue;
    if (x == target) break;
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      if (banned_edges.count(e) > 0) return;
      const GraphEdge& edge = graph.edge(e);
      NodeId y = edge.to;
      if (banned_nodes[y]) return;
      double step = Weight(edge.q) + Weight(graph.node(y).p);
      if (step == kInfinity) return;
      double candidate = d + step;
      if (candidate < dist[y]) {
        dist[y] = candidate;
        via_edge[y] = e;
        via_node[y] = x;
        queue.push({candidate, y});
      }
    });
  }

  DijkstraResult result;
  if (dist[target] == kInfinity) return result;
  // Reconstruct spur -> target.
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  NodeId cursor = target;
  while (cursor != spur) {
    nodes.push_back(cursor);
    edges.push_back(via_edge[cursor]);
    cursor = via_node[cursor];
  }
  nodes.push_back(spur);
  std::reverse(nodes.begin(), nodes.end());
  std::reverse(edges.begin(), edges.end());
  result.path.nodes = std::move(nodes);
  result.path.edges = std::move(edges);
  result.found = true;
  return result;
}

/// Existence probability of a path: product of all node and edge
/// probabilities (source node included).
double PathProbability(const ProbabilisticEntityGraph& graph,
                       const EvidencePath& path) {
  double p = 1.0;
  for (NodeId n : path.nodes) p *= graph.node(n).p;
  for (EdgeId e : path.edges) p *= graph.edge(e).q;
  return p;
}

}  // namespace

Result<std::vector<EvidencePath>> ExplainAnswer(
    const QueryGraph& query_graph, NodeId target,
    const ExplanationOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  if (!graph.IsValidNode(target)) {
    return Status::InvalidArgument("explanation: invalid target");
  }
  if (options.max_paths < 1) {
    return Status::InvalidArgument("explanation: max_paths must be >= 1");
  }

  std::vector<EvidencePath> accepted;
  std::vector<bool> no_banned_nodes(graph.node_capacity(), false);

  // Yen's algorithm: best path by Dijkstra, then spur deviations.
  DijkstraResult first = ShortestFrom(graph, query_graph.source, target,
                                      no_banned_nodes, {});
  if (!first.found) return accepted;  // Unreachable: no explanation.
  first.path.probability = PathProbability(graph, first.path);
  accepted.push_back(first.path);

  // Candidate pool, strongest (lowest -log cost == highest prob) first.
  auto by_probability = [](const EvidencePath& a, const EvidencePath& b) {
    return a.probability < b.probability;
  };
  std::vector<EvidencePath> candidates;
  std::set<std::vector<EdgeId>> seen;
  seen.insert(accepted[0].edges);

  while (static_cast<int>(accepted.size()) < options.max_paths) {
    const EvidencePath& previous = accepted.back();
    for (size_t spur_index = 0; spur_index + 1 < previous.nodes.size();
         ++spur_index) {
      NodeId spur = previous.nodes[spur_index];
      // Ban edges that would recreate an already-accepted path sharing
      // this root prefix.
      std::set<EdgeId> banned_edges;
      for (const EvidencePath& path : accepted) {
        if (path.nodes.size() > spur_index &&
            std::equal(path.nodes.begin(),
                       path.nodes.begin() + spur_index + 1,
                       previous.nodes.begin())) {
          if (spur_index < path.edges.size()) {
            banned_edges.insert(path.edges[spur_index]);
          }
        }
      }
      // Ban the root-path nodes (looplessness).
      std::vector<bool> banned_nodes(graph.node_capacity(), false);
      for (size_t i = 0; i < spur_index; ++i) {
        banned_nodes[previous.nodes[i]] = true;
      }

      DijkstraResult spur_result =
          ShortestFrom(graph, spur, target, banned_nodes, banned_edges);
      if (!spur_result.found) continue;

      EvidencePath candidate;
      candidate.nodes.assign(previous.nodes.begin(),
                             previous.nodes.begin() + spur_index);
      candidate.edges.assign(previous.edges.begin(),
                             previous.edges.begin() + spur_index);
      candidate.nodes.insert(candidate.nodes.end(),
                             spur_result.path.nodes.begin(),
                             spur_result.path.nodes.end());
      candidate.edges.insert(candidate.edges.end(),
                             spur_result.path.edges.begin(),
                             spur_result.path.edges.end());
      candidate.probability = PathProbability(graph, candidate);
      if (seen.insert(candidate.edges).second) {
        candidates.push_back(std::move(candidate));
        std::push_heap(candidates.begin(), candidates.end(),
                       by_probability);
      }
    }
    if (candidates.empty()) break;
    std::pop_heap(candidates.begin(), candidates.end(), by_probability);
    EvidencePath best = std::move(candidates.back());
    candidates.pop_back();
    accepted.push_back(std::move(best));
  }
  return accepted;
}

std::string FormatEvidencePath(const QueryGraph& query_graph,
                               const EvidencePath& path) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  std::string out;
  for (size_t i = 0; i < path.nodes.size(); ++i) {
    const GraphNode& node = graph.node(path.nodes[i]);
    out += node.label.empty() ? std::to_string(path.nodes[i]) : node.label;
    if (i < path.edges.size()) {
      out += " -[q=" + FormatCompact(graph.edge(path.edges[i]).q, 3) + "]-> ";
    }
  }
  out += "  (p=" + FormatCompact(path.probability, 4) + ")";
  return out;
}

}  // namespace biorank
