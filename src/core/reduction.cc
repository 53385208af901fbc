#include "core/reduction.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace biorank {

namespace {

/// One full pass of all enabled rules. Returns true if anything changed.
/// `by_target` is scratch space shared by the passes of one reduction.
bool ReductionPass(QueryGraph& query_graph, const ReductionOptions& options,
                   const std::vector<bool>& protected_nodes,
                   std::vector<std::pair<NodeId, EdgeId>>& by_target,
                   ReductionStats& stats) {
  ProbabilisticEntityGraph& graph = query_graph.graph;
  bool changed = false;

  // Rule: delete self-loops (reachability is unaffected by them).
  if (options.delete_self_loops) {
    for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
      if (!graph.IsValidEdge(e)) continue;
      if (graph.edge(e).from == graph.edge(e).to) {
        graph.RemoveEdge(e);
        ++stats.self_loop_deletions;
        changed = true;
      }
    }
  }

  // Rule: merge parallel edges, 1 - prod(1 - q).
  if (options.merge_parallel) {
    for (NodeId x = 0; x < graph.node_capacity(); ++x) {
      if (!graph.IsValidNode(x) || graph.OutDegree(x) < 2) continue;
      // Adjacency lists append in EdgeId order, so sorting (target, edge)
      // pairs groups parallel edges and keeps each group in adjacency
      // order: the order the product folds in, which fixes its bits.
      by_target.clear();
      graph.ForEachOutEdge(
          x, [&](EdgeId e) { by_target.emplace_back(graph.edge(e).to, e); });
      std::sort(by_target.begin(), by_target.end());
      for (size_t i = 0, j = 0; i < by_target.size(); i = j) {
        while (j < by_target.size() &&
               by_target[j].first == by_target[i].first) {
          ++j;
        }
        if (j - i < 2) continue;
        double fail_all = 1.0;
        for (size_t k = i; k < j; ++k) {
          fail_all *= 1.0 - graph.edge(by_target[k].second).q;
        }
        // Keep the first edge, fold the others into it.
        graph.SetEdgeProb(by_target[i].second, 1.0 - fail_all);
        for (size_t k = i + 1; k < j; ++k) {
          graph.RemoveEdge(by_target[k].second);
        }
        stats.parallel_merges += static_cast<int>(j - i) - 1;
        changed = true;
      }
    }
  }

  // Rule: collapse serial interior nodes.
  if (options.collapse_serial) {
    for (NodeId x = 0; x < graph.node_capacity(); ++x) {
      if (!graph.IsValidNode(x) || protected_nodes[x]) continue;
      if (graph.InDegree(x) != 1 || graph.OutDegree(x) != 1) continue;
      EdgeId in = -1;
      EdgeId out = -1;
      graph.ForEachInEdge(x, [&](EdgeId e) { in = e; });
      graph.ForEachOutEdge(x, [&](EdgeId e) { out = e; });
      NodeId y = graph.edge(in).from;
      NodeId z = graph.edge(out).to;
      if (y == x || z == x) continue;  // Self-loop shapes; other rules apply.
      double q = graph.edge(in).q * graph.node(x).p * graph.edge(out).q;
      graph.RemoveNode(x);  // Also removes both incident edges.
      if (y != z) {
        graph.AddEdge(y, z, q).value();
      }
      // When y == z the spliced path would be a self-loop; drop it.
      ++stats.serial_collapses;
      changed = true;
    }
  }

  // Rule: delete sinks that are not protected.
  if (options.delete_sinks) {
    bool removed = true;
    while (removed) {  // Deleting a sink can create new sinks upstream.
      removed = false;
      for (NodeId x = 0; x < graph.node_capacity(); ++x) {
        if (!graph.IsValidNode(x) || protected_nodes[x]) continue;
        if (graph.OutDegree(x) == 0) {
          graph.RemoveNode(x);
          ++stats.sink_deletions;
          removed = true;
          changed = true;
        }
      }
    }
  }

  // Rule: delete orphans (no in-edges) other than the source. Unreachable
  // answers are protected and stay (they keep score 0).
  if (options.delete_orphans) {
    bool removed = true;
    while (removed) {
      removed = false;
      for (NodeId x = 0; x < graph.node_capacity(); ++x) {
        if (!graph.IsValidNode(x) || protected_nodes[x]) continue;
        if (graph.InDegree(x) == 0) {
          graph.RemoveNode(x);
          ++stats.orphan_deletions;
          removed = true;
          changed = true;
        }
      }
    }
  }

  return changed;
}

}  // namespace

ReductionStats ReduceQueryGraph(QueryGraph& query_graph,
                                const ReductionOptions& options) {
  ReductionStats stats;
  ProbabilisticEntityGraph& graph = query_graph.graph;
  stats.nodes_before = graph.num_nodes();
  stats.edges_before = graph.num_edges();

  std::vector<bool> protected_nodes(graph.node_capacity(), false);
  if (query_graph.source >= 0 &&
      query_graph.source < graph.node_capacity()) {
    protected_nodes[query_graph.source] = true;
  }
  for (NodeId t : query_graph.answers) {
    if (t >= 0 && t < graph.node_capacity()) protected_nodes[t] = true;
  }

  std::vector<std::pair<NodeId, EdgeId>> by_target;
  while (ReductionPass(query_graph, options, protected_nodes, by_target,
                       stats)) {
    ++stats.passes;
  }

  stats.nodes_after = graph.num_nodes();
  stats.edges_after = graph.num_edges();
  return stats;
}

}  // namespace biorank
