// Reachability, topological order, cycle checks, and query-relevant
// subgraph restriction on entity graphs. These support the Section 3.1
// reductions and all scoring methods.

#ifndef BIORANK_CORE_GRAPH_ALGO_H_
#define BIORANK_CORE_GRAPH_ALGO_H_

#include <string>
#include <vector>

#include "core/graph.h"
#include "core/query_graph.h"
#include "util/status.h"

namespace biorank {

/// Nodes reachable from `start` following edge directions (includes
/// `start`). Indexed by NodeId; dead nodes are false.
std::vector<bool> ReachableFrom(const ProbabilisticEntityGraph& graph,
                                NodeId start);

/// Nodes from which `target` is reachable (includes `target`).
std::vector<bool> CoReachable(const ProbabilisticEntityGraph& graph,
                              NodeId target);

/// Topological order of the alive nodes. Fails with FailedPrecondition if
/// the graph has a cycle.
Result<std::vector<NodeId>> TopologicalOrder(
    const ProbabilisticEntityGraph& graph);

/// True if some cycle is reachable from `start` (self-loops count).
bool HasCycleReachableFrom(const ProbabilisticEntityGraph& graph,
                           NodeId start);

/// Length (edge count) of the longest simple path from `source` over the
/// reachable DAG; fails if a cycle is reachable. This is the iteration
/// count after which propagation reaches its fixpoint on DAGs (Sect 3.2).
Result<int> LongestPathLengthFrom(const ProbabilisticEntityGraph& graph,
                                  NodeId source);

/// Copies the subgraph induced by `keep` (indexed by NodeId) into a fresh
/// graph with dense ids. `old_to_new` (optional out-param) receives the id
/// mapping, kInvalidNode for dropped nodes.
ProbabilisticEntityGraph InducedSubgraph(const ProbabilisticEntityGraph& graph,
                                         const std::vector<bool>& keep,
                                         std::vector<NodeId>* old_to_new);

/// Restricts a query graph to the union over the given answers t (often
/// one target, or `query_graph.answers`) of the nodes lying on some
/// source -> t path (i.e. Reach(source) intersected with the union of
/// CoReach(t)); the output's answer set is `answers`. Answers unreachable
/// from the source are kept as isolated nodes so that every input answer
/// remains a valid (score-0) answer in the output.
/// `kept_nodes` (optional out-param) receives the membership mask of the
/// restriction, indexed by *original* NodeId — the provenance record the
/// ingest layer's dependency index is built from. Canonicalization's
/// snapshot restriction (core/canonical.h) is tested against this one.
QueryGraph RestrictToQueryRelevantSubgraph(const QueryGraph& query_graph,
                                           const std::vector<NodeId>& answers,
                                           std::vector<bool>* kept_nodes =
                                               nullptr);

/// Graphviz DOT rendering (nodes annotated with p, edges with q; source
/// drawn as a box, answers as double circles).
std::string ToDot(const QueryGraph& query_graph);

}  // namespace biorank

#endif  // BIORANK_CORE_GRAPH_ALGO_H_
