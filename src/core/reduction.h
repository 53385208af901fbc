// Reliability-preserving graph reductions of Section 3.1: sink and
// orphan deletion, serial collapse, parallel merge, self-loop removal,
// applied to fixpoint while protecting the source and answer nodes.

#ifndef BIORANK_CORE_REDUCTION_H_
#define BIORANK_CORE_REDUCTION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/query_graph.h"

namespace biorank {

/// Which graph transformation rules ReduceQueryGraph applies. The first
/// three are the paper's rules (Section 3.1, "Graph Reductions"); the last
/// two are sound extras that the paper's "delete inaccessible nodes" rule
/// implies for source-target reliability. All rules preserve the
/// source-target reliability of every protected node exactly (verified by
/// property tests against brute-force exact reliability).
struct ReductionOptions {
  bool delete_sinks = true;      ///< Remove non-answer nodes with no out-edges.
  bool collapse_serial = true;   ///< Splice out 1-in/1-out interior nodes.
  bool merge_parallel = true;    ///< Combine parallel edges: 1 - prod(1 - q).
  bool delete_orphans = true;    ///< Remove non-source nodes with no in-edges.
  bool delete_self_loops = true; ///< Self-loops never affect reachability.
};

/// Counters describing one ReduceQueryGraph run.
struct ReductionStats {
  int nodes_before = 0;
  int edges_before = 0;
  int nodes_after = 0;
  int edges_after = 0;
  int sink_deletions = 0;
  int orphan_deletions = 0;
  int serial_collapses = 0;
  int parallel_merges = 0;
  int self_loop_deletions = 0;
  int passes = 0;

  /// Fraction of nodes+edges removed, in [0,1]. The paper reports -78% on
  /// its 20 scenario graphs.
  double RemovedFraction() const {
    int before = nodes_before + edges_before;
    if (before == 0) return 0.0;
    int after = nodes_after + edges_after;
    return static_cast<double>(before - after) / static_cast<double>(before);
  }
};

/// Buffers a reduction works in, kept by callers that reduce many times
/// (the factoring recursion) so that no call allocates. Contents between
/// calls are meaningless.
struct ReductionScratch {
  /// Bit sets over node ids, back to back: the protected nodes, then one
  /// dirty set per node rule (parallel, serial, sink, orphan).
  std::vector<uint64_t> bits;
  std::vector<std::pair<NodeId, EdgeId>> by_target;  ///< Parallel merge.
};

/// Applies the transformation rules repeatedly until none changes the
/// graph (Section 3.1). The source and all answer nodes are protected from
/// deletion and from serial collapse. Mutates `query_graph` in place
/// (tombstoning removed elements) and returns counters.
///
/// Each pass runs the rules in a fixed order (self-loops, parallel,
/// serial, sinks repeated, orphans repeated), and each node rule sweeps
/// node ids upward, visiting only the nodes in its dirty set. A node is
/// dirty for the serial, sink or orphan rule when it meets that rule's
/// degree condition, checked at the start and after every mutation that
/// changes its degrees; it is dirty for parallel merge at the start if it
/// has two out-edges, and later when an edge is added out of it. A node
/// dirtied above a sweep's cursor is visited in that sweep, one at or
/// below it in the next. A clean node satisfies no rule, so the result
/// (ids, adjacency order, probability bits, stats) is that of sweeping
/// every node in id order. No rule reads a probability to decide, and
/// none creates a self-loop, so the self-loop sweep runs in the first
/// pass only.
///
/// Rule semantics:
///  - Serial collapse of interior node x with unique in-edge (y,x) and
///    unique out-edge (x,z), y != x != z: replace with edge (y,z) of
///    probability q(y,x) * p(x) * q(x,z). When y == z the spliced path
///    returns to its origin and contributes nothing; x is simply deleted.
///  - Parallel merge of edges e1..ek from x to y: one edge with
///    probability 1 - prod_i (1 - q(ei)).
ReductionStats ReduceQueryGraph(QueryGraph& query_graph,
                                const ReductionOptions& options = {});

/// ReduceQueryGraph in caller-owned scratch.
ReductionStats ReduceQueryGraph(QueryGraph& query_graph,
                                const ReductionOptions& options,
                                ReductionScratch& scratch);

/// ReduceQueryGraph for a graph that was at a fixpoint under `options`
/// until edge `removed` was removed: only its two endpoints can start
/// dirty, since no other node's degrees changed. The result equals a
/// full ReduceQueryGraph's, stats included. The factoring recursion's
/// absent branch calls it; its present branch, which only raises a
/// probability, needs no reduction at all.
ReductionStats ReduceAfterEdgeRemoval(QueryGraph& query_graph, EdgeId removed,
                                      ReductionScratch& scratch,
                                      const ReductionOptions& options = {});

}  // namespace biorank

#endif  // BIORANK_CORE_REDUCTION_H_
