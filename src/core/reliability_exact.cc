#include "core/reliability_exact.h"

#include <algorithm>

#include "core/graph_algo.h"
#include "core/reduction.h"
#include "core/reify.h"

namespace biorank {

namespace {

bool IsUncertain(double p) { return p > 0.0 && p < 1.0; }

/// Reachability from `start` over alive edges that pass `edge_ok` through
/// nodes that pass `node_ok`. `start` itself must pass `node_ok`.
template <typename NodeOk, typename EdgeOk>
bool Reaches(const ProbabilisticEntityGraph& graph, NodeId start,
             NodeId target, NodeOk&& node_ok, EdgeOk&& edge_ok) {
  if (!graph.IsValidNode(start) || !graph.IsValidNode(target)) return false;
  if (!node_ok(start)) return false;
  if (start == target) return true;
  std::vector<bool> visited(graph.node_capacity(), false);
  std::vector<NodeId> stack = {start};
  visited[start] = true;
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    bool found = false;
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      if (found || !edge_ok(e)) return;
      NodeId y = graph.edge(e).to;
      if (visited[y] || !node_ok(y)) return;
      if (y == target) {
        found = true;
        return;
      }
      visited[y] = true;
      stack.push_back(y);
    });
    if (found) return true;
  }
  return false;
}

struct FactoringContext {
  int64_t calls = 0;
  int64_t max_calls = 0;
  bool use_reductions = false;
  bool budget_exceeded = false;
};

/// Recursive edge-conditioning on a reified (edge-failures-only) graph.
double FactorRec(QueryGraph query_graph, FactoringContext& ctx) {
  if (ctx.budget_exceeded) return 0.0;
  if (++ctx.calls > ctx.max_calls) {
    ctx.budget_exceeded = true;
    return 0.0;
  }
  ProbabilisticEntityGraph& graph = query_graph.graph;
  NodeId s = query_graph.source;
  NodeId t = query_graph.answers[0];

  if (ctx.use_reductions) {
    ReduceQueryGraph(query_graph);
  }

  // Pruning 1: unreachable even if every uncertain edge were present.
  auto any_alive = [&](EdgeId e) { return graph.edge(e).q > 0.0; };
  auto all_nodes = [&](NodeId) { return true; };
  if (!Reaches(graph, s, t, all_nodes, any_alive)) return 0.0;

  // Pruning 2: reachable through certain edges alone.
  auto certain = [&](EdgeId e) { return graph.edge(e).q >= 1.0; };
  if (Reaches(graph, s, t, all_nodes, certain)) return 1.0;

  // Pick an uncertain edge to condition on: the first uncertain edge found
  // by a DFS from the source (it is guaranteed to lie in the reachable
  // region, keeping branches meaningful).
  EdgeId pivot = -1;
  {
    std::vector<bool> visited(graph.node_capacity(), false);
    std::vector<NodeId> stack = {s};
    visited[s] = true;
    while (!stack.empty() && pivot < 0) {
      NodeId x = stack.back();
      stack.pop_back();
      graph.ForEachOutEdge(x, [&](EdgeId e) {
        if (pivot >= 0) return;
        const GraphEdge& edge = graph.edge(e);
        if (IsUncertain(edge.q)) {
          pivot = e;
          return;
        }
        if (edge.q > 0.0 && !visited[edge.to]) {
          visited[edge.to] = true;
          stack.push_back(edge.to);
        }
      });
    }
  }
  if (pivot < 0) {
    // No uncertain edge on the frontier, yet pruning 2 failed: the target
    // sits behind uncertain edges unreachable via certain ones. Scan all.
    for (EdgeId e = 0; e < graph.edge_capacity() && pivot < 0; ++e) {
      if (graph.IsValidEdge(e) && IsUncertain(graph.edge(e).q)) pivot = e;
    }
    if (pivot < 0) return 0.0;  // Fully deterministic and not reachable.
  }

  double q = graph.edge(pivot).q;

  QueryGraph with_edge = query_graph;
  with_edge.graph.SetEdgeProb(pivot, 1.0);
  double r_present = FactorRec(std::move(with_edge), ctx);

  QueryGraph without_edge = std::move(query_graph);
  without_edge.graph.RemoveEdge(pivot);
  double r_absent = FactorRec(std::move(without_edge), ctx);

  return q * r_present + (1.0 - q) * r_absent;
}

}  // namespace

Result<double> ExactReliabilityBruteForce(const QueryGraph& query_graph,
                                          NodeId target,
                                          int max_uncertain_elements) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  if (!graph.IsValidNode(target)) {
    return Status::InvalidArgument("brute force: invalid target");
  }

  std::vector<NodeId> uncertain_nodes;
  std::vector<EdgeId> uncertain_edges;
  for (NodeId i : graph.AliveNodes()) {
    if (IsUncertain(graph.node(i).p)) uncertain_nodes.push_back(i);
  }
  for (EdgeId e : graph.AliveEdges()) {
    if (IsUncertain(graph.edge(e).q)) uncertain_edges.push_back(e);
  }
  int total = static_cast<int>(uncertain_nodes.size() + uncertain_edges.size());
  if (total > max_uncertain_elements) {
    return Status::FailedPrecondition(
        "brute force: " + std::to_string(total) +
        " uncertain elements exceed limit " +
        std::to_string(max_uncertain_elements));
  }

  std::vector<bool> node_present(graph.node_capacity(), false);
  std::vector<bool> edge_present(graph.edge_capacity(), false);
  // Deterministic elements keep fixed states.
  for (NodeId i : graph.AliveNodes()) node_present[i] = graph.node(i).p >= 1.0;
  for (EdgeId e : graph.AliveEdges()) edge_present[e] = graph.edge(e).q >= 1.0;

  double reliability = 0.0;
  uint64_t worlds = 1ULL << total;
  for (uint64_t world = 0; world < worlds; ++world) {
    double prob = 1.0;
    for (size_t i = 0; i < uncertain_nodes.size(); ++i) {
      bool present = (world >> i) & 1;
      node_present[uncertain_nodes[i]] = present;
      double p = graph.node(uncertain_nodes[i]).p;
      prob *= present ? p : (1.0 - p);
    }
    for (size_t i = 0; i < uncertain_edges.size(); ++i) {
      bool present = (world >> (uncertain_nodes.size() + i)) & 1;
      edge_present[uncertain_edges[i]] = present;
      double q = graph.edge(uncertain_edges[i]).q;
      prob *= present ? q : (1.0 - q);
    }
    bool connected = Reaches(
        graph, query_graph.source, target,
        [&](NodeId n) { return node_present[n]; },
        [&](EdgeId e) { return edge_present[e]; });
    if (connected) reliability += prob;
  }
  return reliability;
}

Result<double> ExactReliabilityFactoring(const QueryGraph& query_graph,
                                         NodeId target,
                                         const FactoringOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  if (!query_graph.graph.IsValidNode(target)) {
    return Status::InvalidArgument("factoring: invalid target");
  }

  // Work on the single-target query graph restricted to relevant nodes.
  QueryGraph restricted =
      RestrictToQueryRelevantSubgraph(query_graph, {target});

  // Remove node failures so the recursion only conditions edges.
  ReifiedGraph reified = ReifyNodeFailures(restricted);

  FactoringContext ctx;
  ctx.max_calls = options.max_calls;
  ctx.use_reductions = options.use_reductions;
  double value = FactorRec(std::move(reified.query_graph), ctx);
  if (ctx.budget_exceeded) {
    return Status::FailedPrecondition(
        "factoring: exceeded max_calls budget (graph too complex)");
  }
  return value;
}

Result<std::vector<double>> ExactReliabilityAllAnswers(
    const QueryGraph& query_graph, const FactoringOptions& options) {
  std::vector<double> scores;
  scores.reserve(query_graph.answers.size());
  for (NodeId t : query_graph.answers) {
    Result<double> r = ExactReliabilityFactoring(query_graph, t, options);
    if (!r.ok()) return r.status();
    scores.push_back(r.value());
  }
  return scores;
}

}  // namespace biorank
