#include "core/closed_form.h"

#include "core/graph_algo.h"
#include "core/reduction.h"

namespace biorank {

namespace {

/// ClosedFormReliability on a validated query graph, given `csr`, its
/// snapshot.
Result<double> ClosedFormOnSnapshot(const QueryGraph& query_graph,
                                    const CsrSnapshot& csr, NodeId target) {
  if (!query_graph.graph.IsValidNode(target)) {
    return Status::InvalidArgument("closed form: invalid target");
  }

  QueryGraph sub = RestrictToTarget(csr, query_graph.source, target);
  ReduceQueryGraph(sub);

  NodeId s = sub.source;
  NodeId t = sub.answers[0];
  if (!sub.graph.IsValidNode(t)) {
    return Status::Internal("closed form: protected target was removed");
  }

  // The source as its own target: reliable exactly when present.
  if (t == s) return sub.graph.node(s).p;

  // Unreachable target: restriction keeps it isolated.
  if (sub.graph.InDegree(t) == 0) return 0.0;

  // Fully reduced residue: exactly the two protected nodes and one edge.
  std::vector<EdgeId> in = sub.graph.InEdges(t);
  if (sub.graph.num_nodes() == 2 && sub.graph.num_edges() == 1 &&
      in.size() == 1 && sub.graph.edge(in[0]).from == s) {
    return sub.graph.node(s).p * sub.graph.edge(in[0]).q *
           sub.graph.node(t).p;
  }
  return Status::FailedPrecondition(
      "closed form: target subgraph is irreducible (residual " +
      std::to_string(sub.graph.num_nodes()) + " nodes, " +
      std::to_string(sub.graph.num_edges()) + " edges)");
}

}  // namespace

Result<double> ClosedFormReliability(const QueryGraph& query_graph,
                                     NodeId target) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  return ClosedFormOnSnapshot(query_graph, BuildCsrSnapshot(query_graph.graph),
                              target);
}

Result<std::vector<double>> ClosedFormReliabilityAllAnswers(
    const QueryGraph& query_graph) {
  std::vector<double> scores;
  if (query_graph.answers.empty()) return scores;
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const CsrSnapshot csr = BuildCsrSnapshot(query_graph.graph);
  scores.reserve(query_graph.answers.size());
  for (NodeId t : query_graph.answers) {
    Result<double> r = ClosedFormOnSnapshot(query_graph, csr, t);
    if (!r.ok()) return r.status();
    scores.push_back(r.value());
  }
  return scores;
}

}  // namespace biorank
