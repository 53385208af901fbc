// Reachability, cycle checks, and the per-answer query-relevant
// subgraph restriction on entity graphs. These support the Section 3.1
// reductions and all scoring methods.

#ifndef BIORANK_CORE_GRAPH_ALGO_H_
#define BIORANK_CORE_GRAPH_ALGO_H_

#include <vector>

#include "core/csr_snapshot.h"
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

/// Restricts a graph to the evidence subgraph of one target: the nodes
/// on some source -> target path, Reach(source) ∩ CoReach(target)
/// (Section 3.1's query-relevant subgraph for a single answer). `csr` is
/// an unmasked snapshot of the graph (BuildCsrSnapshot); `source` and
/// `target` are alive original node ids, and may be equal. The walk is
/// target-first: a backward BFS from `target` marks CoReach(target), and
/// a forward BFS from the source expands only marked nodes, so the cost
/// is proportional to the target's ancestors, not to the graph. A target
/// unreachable from the source is kept as an isolated node beside the
/// source, so it remains a valid (score-0) answer.
///
/// The result has `answers = {target}` and no labels. Its nodes ascend by
/// original id, and each node's out-edges keep the snapshot's segment
/// order (ascending original EdgeId). `kept_nodes`, when given, receives
/// the kept original node ids in that same ascending order: restricted
/// node i is (*kept_nodes)[i].
QueryGraph RestrictToTarget(const CsrSnapshot& csr, NodeId source,
                            NodeId target,
                            std::vector<NodeId>* kept_nodes = nullptr);

}  // namespace biorank

#endif  // BIORANK_CORE_GRAPH_ALGO_H_
