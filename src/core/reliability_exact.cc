#include "core/reliability_exact.h"

#include <algorithm>

#include "core/graph_algo.h"
#include "core/reduction.h"
#include "core/reify.h"

namespace biorank {

namespace {

bool IsUncertain(double p) { return p > 0.0 && p < 1.0; }

/// Epoch-stamped visit marks and one DFS stack, reused by every search of
/// a kernel run so that no search allocates.
struct DfsScratch {
  std::vector<uint32_t> stamp;  ///< stamp[x] == epoch: x seen this search.
  std::vector<NodeId> stack;
  uint32_t epoch = 0;
};

/// Reachability from `start` over alive edges that pass `edge_ok` through
/// nodes that pass `node_ok`. `start` itself must pass `node_ok`.
template <typename NodeOk, typename EdgeOk>
bool Reaches(const ProbabilisticEntityGraph& graph, NodeId start,
             NodeId target, NodeOk&& node_ok, EdgeOk&& edge_ok,
             DfsScratch& dfs) {
  if (!graph.IsValidNode(start) || !graph.IsValidNode(target)) return false;
  if (!node_ok(start)) return false;
  if (start == target) return true;
  dfs.stamp.resize(static_cast<size_t>(graph.node_capacity()));
  if (++dfs.epoch == 0) {  // Wrapped: old stamps would alias this search.
    std::fill(dfs.stamp.begin(), dfs.stamp.end(), 0u);
    dfs.epoch = 1;
  }
  const uint32_t epoch = dfs.epoch;
  dfs.stack.assign(1, start);
  dfs.stamp[start] = epoch;
  while (!dfs.stack.empty()) {
    NodeId x = dfs.stack.back();
    dfs.stack.pop_back();
    bool found = false;
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      if (found || !edge_ok(e)) return;
      NodeId y = graph.edge(e).to;
      if (dfs.stamp[y] == epoch || !node_ok(y)) return;
      if (y == target) {
        found = true;
        return;
      }
      dfs.stamp[y] = epoch;
      dfs.stack.push_back(y);
    });
    if (found) return true;
  }
  return false;
}

struct FactoringContext {
  int64_t calls = 0;
  int64_t max_calls = 0;
  bool budget_exceeded = false;
  DfsScratch dfs;
  ReductionScratch reduction;
};

/// How a FactorRec call's graph differs from its caller's, which was at a
/// reduction fixpoint and passed pruning 1.
enum class Branch {
  kRoot,     ///< No caller: reduce everything.
  kPresent,  ///< The caller's pivot became certain.
  kAbsent,   ///< The caller's pivot was removed.
};

/// Recursive edge-conditioning on a reified (edge-failures-only) graph, in
/// place: `scope` reverts every mutation below on return. `conditioned` is
/// the caller's pivot (-1 at the root).
double FactorRec(QueryGraph& query_graph, FactoringContext& ctx,
                 Branch branch, EdgeId conditioned) {
  if (ctx.budget_exceeded) return 0.0;
  if (++ctx.calls > ctx.max_calls) {
    ctx.budget_exceeded = true;
    return 0.0;
  }
  ProbabilisticEntityGraph& graph = query_graph.graph;
  ProbabilisticEntityGraph::UndoScope scope(graph);
  NodeId s = query_graph.source;
  NodeId t = query_graph.answers[0];
  auto all_nodes = [&](NodeId) { return true; };

  // Making the caller's pivot certain leaves its graph at the reduction
  // fixpoint, since no rule reads a probability, and removes no q > 0
  // path, so the present branch skips both the reduction and pruning 1.
  // The absent branch re-reduces only around the removed pivot.
  if (branch != Branch::kPresent) {
    if (branch == Branch::kRoot) {
      ReduceQueryGraph(query_graph, {}, ctx.reduction);
    } else {
      ReduceAfterEdgeRemoval(query_graph, conditioned, ctx.reduction);
    }
    // Pruning 1: unreachable even if every uncertain edge were present.
    auto any_alive = [&](EdgeId e) { return graph.edge(e).q > 0.0; };
    if (!Reaches(graph, s, t, all_nodes, any_alive, ctx.dfs)) return 0.0;
  }

  // Pruning 2: reachable through certain edges alone. The same DFS picks
  // the pivot to condition on: the first uncertain edge it meets, which
  // leaves the region certain edges reach from the source and so keeps
  // branches meaningful. One exists: without one, every q > 0 path from
  // the source is certain, and pruning 1 or 2 would have returned.
  EdgeId pivot = -1;
  auto certain = [&](EdgeId e) {
    const double q = graph.edge(e).q;
    if (pivot < 0 && IsUncertain(q)) pivot = e;
    return q >= 1.0;
  };
  if (Reaches(graph, s, t, all_nodes, certain, ctx.dfs)) return 1.0;

  const double q = graph.edge(pivot).q;
  double r_present = 0.0;
  {
    ProbabilisticEntityGraph::UndoScope present(graph);
    graph.SetEdgeProb(pivot, 1.0);
    r_present = FactorRec(query_graph, ctx, Branch::kPresent, pivot);
  }
  graph.RemoveEdge(pivot);
  const double r_absent = FactorRec(query_graph, ctx, Branch::kAbsent, pivot);
  return q * r_present + (1.0 - q) * r_absent;
}

/// ExactReliabilityFactoring on a validated query graph, given `csr`, its
/// snapshot.
Result<double> FactorOnSnapshot(const QueryGraph& query_graph,
                                const CsrSnapshot& csr, NodeId target,
                                const FactoringOptions& options) {
  if (!query_graph.graph.IsValidNode(target)) {
    return Status::InvalidArgument("factoring: invalid target");
  }

  // Work on the single-target query graph restricted to relevant nodes.
  QueryGraph restricted = RestrictToTarget(csr, query_graph.source, target);

  // Remove node failures so the recursion only conditions edges.
  ReifiedGraph reified = ReifyNodeFailures(restricted);

  FactoringContext ctx;
  ctx.max_calls = options.max_calls;
  double value = FactorRec(reified.query_graph, ctx, Branch::kRoot, -1);
  if (ctx.budget_exceeded) {
    return Status::FailedPrecondition(
        "factoring: exceeded max_calls budget (graph too complex)");
  }
  return value;
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
  DfsScratch dfs;
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
        [&](EdgeId e) { return edge_present[e]; }, dfs);
    if (connected) reliability += prob;
  }
  return reliability;
}

Result<double> ExactReliabilityFactoring(const QueryGraph& query_graph,
                                         NodeId target,
                                         const FactoringOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  return FactorOnSnapshot(query_graph, BuildCsrSnapshot(query_graph.graph),
                          target, options);
}

Result<std::vector<double>> ExactReliabilityAllAnswers(
    const QueryGraph& query_graph, const FactoringOptions& options) {
  std::vector<double> scores;
  if (query_graph.answers.empty()) return scores;
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const CsrSnapshot csr = BuildCsrSnapshot(query_graph.graph);
  scores.reserve(query_graph.answers.size());
  for (NodeId t : query_graph.answers) {
    Result<double> r = FactorOnSnapshot(query_graph, csr, t, options);
    if (!r.ok()) return r.status();
    scores.push_back(r.value());
  }
  return scores;
}

}  // namespace biorank
