#include "core/reduction.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace biorank {

namespace {

/// The bit sets of ReductionScratch::bits, in order: the protected nodes,
/// then the dirty set of each node rule.
enum NodeSet { kProtected, kParallel, kSerial, kSink, kOrphan, kNumSets };

/// One reduction to a fixpoint (see ReduceQueryGraph's contract).
class Reducer {
 public:
  /// Sizes `scratch` for `query_graph` and dirties every node (only
  /// `from` and `to` when `full` is false) in the sets whose conditions
  /// it meets.
  Reducer(QueryGraph& query_graph, const ReductionOptions& options,
          ReductionScratch& scratch, bool full, NodeId from, NodeId to)
      : graph_(query_graph.graph),
        options_(options),
        words_((static_cast<size_t>(graph_.node_capacity()) + 63) / 64),
        full_(full),
        by_target_(scratch.by_target) {
    scratch.bits.assign(words_ * kNumSets, 0);
    bits_ = scratch.bits.data();
    const NodeId capacity = graph_.node_capacity();
    if (query_graph.source >= 0 && query_graph.source < capacity) {
      Mark(kProtected, query_graph.source);
    }
    for (NodeId t : query_graph.answers) {
      if (t >= 0 && t < capacity) Mark(kProtected, t);
    }
    if (!full) {
      Dirty(from);
      Dirty(to);
      return;
    }
    for (NodeId x = 0; x < capacity; ++x) {
      if (!graph_.IsValidNode(x)) continue;
      Dirty(x);
      if (graph_.OutDegree(x) >= 2) Mark(kParallel, x);
    }
  }

  ReductionStats Run() {
    stats_.nodes_before = graph_.num_nodes();
    stats_.edges_before = graph_.num_edges();
    // No rule creates a self-loop, so only a full reduction's first pass
    // looks for them.
    for (bool first = true; Pass(full_ && first); first = false) {
      ++stats_.passes;
    }
    stats_.nodes_after = graph_.num_nodes();
    stats_.edges_after = graph_.num_edges();
    return stats_;
  }

 private:
  /// One pass of every enabled rule. Returns true if anything changed.
  bool Pass(bool self_loops) {
    bool changed = false;
    if (self_loops && options_.delete_self_loops) changed |= SelfLoops();
    if (options_.merge_parallel) {
      changed |= Sweep(kParallel, [&](NodeId x) { return Merge(x); });
    }
    if (options_.collapse_serial) {
      changed |= Sweep(kSerial, [&](NodeId x) { return Collapse(x); });
    }
    // Deleting a sink can create new sinks upstream, and an orphan new
    // orphans downstream: repeat until no sweep finds one.
    if (options_.delete_sinks) {
      while (Sweep(kSink, [&](NodeId x) { return DeleteSink(x); })) {
        changed = true;
      }
    }
    if (options_.delete_orphans) {
      while (Sweep(kOrphan, [&](NodeId x) { return DeleteOrphan(x); })) {
        changed = true;
      }
    }
    return changed;
  }

  void Mark(NodeSet set, NodeId x) {
    const uint64_t bit = uint64_t{1} << (x & 63);
    bits_[set * words_ + static_cast<size_t>(x >> 6)] |= bit;
  }
  bool Protected(NodeId x) const {
    return (bits_[x >> 6] >> (x & 63)) & 1;
  }

  /// Puts `x` in each of the serial, sink and orphan sets whose degree
  /// condition it meets. Every mutation calls it on the nodes whose
  /// degrees it changed, so a node that meets a rule's condition is in
  /// that rule's set. (Only an added edge can form a parallel group; its
  /// source is marked where the edge is added.)
  void Dirty(NodeId x) {
    const int in = graph_.InDegree(x);
    const int out = graph_.OutDegree(x);
    if (in == 1 && out == 1) Mark(kSerial, x);
    if (out == 0) Mark(kSink, x);
    if (in == 0) Mark(kOrphan, x);
  }

  /// Visits the members of `set` in ascending order, removing each before
  /// its visit. A member added above the cursor is visited in this sweep,
  /// one added at or below it in the next: the order in which a sweep over
  /// every node id would reach them. Returns true if a visit changed the
  /// graph.
  template <typename Visit>
  bool Sweep(NodeSet set, Visit&& visit) {
    uint64_t* words = bits_ + set * words_;
    bool changed = false;
    for (size_t w = 0; w < words_; ++w) {
      uint64_t above = ~uint64_t{0};  // The bits of word w past the cursor.
      for (uint64_t word; (word = words[w] & above) != 0;) {
        const int bit = __builtin_ctzll(word);
        words[w] &= ~(uint64_t{1} << bit);
        above = bit == 63 ? 0 : ~uint64_t{0} << (bit + 1);
        const NodeId x = static_cast<NodeId>(w * 64) + bit;
        if (graph_.IsValidNode(x) && visit(x)) changed = true;
      }
    }
    return changed;
  }

  void RemoveEdge(EdgeId e) {
    graph_.RemoveEdge(e);
    Dirty(graph_.edge(e).from);
    Dirty(graph_.edge(e).to);
  }

  /// Rule: delete self-loops (reachability is unaffected by them).
  bool SelfLoops() {
    bool changed = false;
    for (EdgeId e = 0; e < graph_.edge_capacity(); ++e) {
      if (!graph_.IsValidEdge(e)) continue;
      if (graph_.edge(e).from == graph_.edge(e).to) {
        RemoveEdge(e);
        ++stats_.self_loop_deletions;
        changed = true;
      }
    }
    return changed;
  }

  /// Rule: merge parallel edges out of `x`, 1 - prod(1 - q).
  bool Merge(NodeId x) {
    if (graph_.OutDegree(x) < 2) return false;
    // Adjacency lists append in EdgeId order, so sorting (target, edge)
    // pairs groups parallel edges and keeps each group in adjacency
    // order: the order the product folds in, which fixes its bits.
    std::vector<std::pair<NodeId, EdgeId>>& by_target = by_target_;
    by_target.clear();
    graph_.ForEachOutEdge(
        x, [&](EdgeId e) { by_target.emplace_back(graph_.edge(e).to, e); });
    std::sort(by_target.begin(), by_target.end());
    bool changed = false;
    for (size_t i = 0, j = 0; i < by_target.size(); i = j) {
      while (j < by_target.size() &&
             by_target[j].first == by_target[i].first) {
        ++j;
      }
      if (j - i < 2) continue;
      double fail_all = 1.0;
      for (size_t k = i; k < j; ++k) {
        fail_all *= 1.0 - graph_.edge(by_target[k].second).q;
      }
      // Keep the first edge, fold the others into it.
      graph_.SetEdgeProb(by_target[i].second, 1.0 - fail_all);
      for (size_t k = i + 1; k < j; ++k) RemoveEdge(by_target[k].second);
      stats_.parallel_merges += static_cast<int>(j - i) - 1;
      changed = true;
    }
    return changed;
  }

  /// Rule: collapse `x` if it is a serial interior node.
  bool Collapse(NodeId x) {
    if (Protected(x)) return false;
    if (graph_.InDegree(x) != 1 || graph_.OutDegree(x) != 1) return false;
    EdgeId in = -1;
    EdgeId out = -1;
    graph_.ForEachInEdge(x, [&](EdgeId e) { in = e; });
    graph_.ForEachOutEdge(x, [&](EdgeId e) { out = e; });
    const NodeId y = graph_.edge(in).from;
    const NodeId z = graph_.edge(out).to;
    if (y == x || z == x) return false;  // Self-loop shapes; other rules apply.
    const double q = graph_.edge(in).q * graph_.node(x).p * graph_.edge(out).q;
    graph_.RemoveNode(x);  // Also removes both incident edges.
    // The new edge keeps y's and z's degrees, but may parallel another
    // out of y. When y == z the spliced path would be a self-loop; drop it.
    if (y != z) {
      graph_.AddEdge(y, z, q).value();
      Mark(kParallel, y);
    } else {
      Dirty(y);
    }
    ++stats_.serial_collapses;
    return true;
  }

  /// Rule: delete `x` if it is an unprotected sink.
  bool DeleteSink(NodeId x) {
    if (Protected(x) || graph_.OutDegree(x) != 0) return false;
    graph_.ForEachInEdge(x, [&](EdgeId e) { RemoveEdge(e); });
    graph_.RemoveNode(x);
    ++stats_.sink_deletions;
    return true;
  }

  /// Rule: delete `x` if it is an orphan other than the source. Unreachable
  /// answers are protected and stay (they keep score 0).
  bool DeleteOrphan(NodeId x) {
    if (Protected(x) || graph_.InDegree(x) != 0) return false;
    graph_.ForEachOutEdge(x, [&](EdgeId e) { RemoveEdge(e); });
    graph_.RemoveNode(x);
    ++stats_.orphan_deletions;
    return true;
  }

  ProbabilisticEntityGraph& graph_;
  const ReductionOptions& options_;
  const size_t words_;  ///< Words per bit set.
  const bool full_;
  std::vector<std::pair<NodeId, EdgeId>>& by_target_;
  uint64_t* bits_;  ///< ReductionScratch::bits.
  ReductionStats stats_;
};

}  // namespace

ReductionStats ReduceQueryGraph(QueryGraph& query_graph,
                                const ReductionOptions& options) {
  ReductionScratch scratch;
  return ReduceQueryGraph(query_graph, options, scratch);
}

ReductionStats ReduceQueryGraph(QueryGraph& query_graph,
                                const ReductionOptions& options,
                                ReductionScratch& scratch) {
  return Reducer(query_graph, options, scratch, /*full=*/true, -1, -1).Run();
}

ReductionStats ReduceAfterEdgeRemoval(QueryGraph& query_graph, EdgeId removed,
                                      ReductionScratch& scratch,
                                      const ReductionOptions& options) {
  const GraphEdge& edge = query_graph.graph.edge(removed);
  return Reducer(query_graph, options, scratch, /*full=*/false, edge.from,
                 edge.to)
      .Run();
}

}  // namespace biorank
