// Reachability, cycle checks, and query-relevant subgraph restriction on
// entity graphs. These support the Section 3.1 reductions and all scoring
// methods.

#ifndef BIORANK_CORE_GRAPH_ALGO_H_
#define BIORANK_CORE_GRAPH_ALGO_H_

#include <vector>

#include "core/graph.h"
#include "core/query_graph.h"

namespace biorank {

/// Nodes reachable from `start` following edge directions (includes
/// `start`). Indexed by NodeId; dead nodes are false.
std::vector<bool> ReachableFrom(const ProbabilisticEntityGraph& graph,
                                NodeId start);

/// True if some cycle is reachable from `start` (self-loops count).
bool HasCycleReachableFrom(const ProbabilisticEntityGraph& graph,
                           NodeId start);

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

}  // namespace biorank

#endif  // BIORANK_CORE_GRAPH_ALGO_H_
