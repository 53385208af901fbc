// Exact source-target reliability: brute-force enumeration of
// possible worlds, the factoring (conditioning) algorithm, and a
// topological frontier sweep for DAGs. All are exponential in the worst
// case, the sweep only in the width of its open-node frontier.

#ifndef BIORANK_CORE_RELIABILITY_EXACT_H_
#define BIORANK_CORE_RELIABILITY_EXACT_H_

#include <cstdint>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "util/status.h"

namespace biorank {

/// Exact source-target reliability of one answer node by enumerating every
/// subset of uncertain elements (nodes with 0 < p < 1, edges with
/// 0 < q < 1). Exponential: refuses graphs with more than
/// `max_uncertain_elements` uncertain elements. Intended as the oracle for
/// property tests; use factoring or Monte Carlo for real graphs.
///
/// The score is P[target reachable from source AND target present],
/// matching the semantics of Algorithm 3.1.
Result<double> ExactReliabilityBruteForce(const QueryGraph& query_graph,
                                          NodeId target,
                                          int max_uncertain_elements = 25);

/// Options for the factoring algorithm.
struct FactoringOptions {
  /// Upper bound on recursive conditioning calls; exceeding it returns
  /// FailedPrecondition ("graph too complex"). #P-hardness (Valiant 1979)
  /// means some graphs are genuinely out of reach.
  int64_t max_calls = 4'000'000;
};

/// Exact source-target reliability by the factoring (edge conditioning)
/// method: pick an uncertain edge e, then
///   R = q(e) * R(G with e certain) + (1 - q(e)) * R(G without e),
/// with series-parallel reductions applied between steps and two prunings
/// (target unreachable via any alive edge -> 0; target reachable via
/// certain edges only -> 1). Node failures are removed first by reifying
/// the graph. Exact up to floating point; fails with FailedPrecondition on
/// graphs exceeding `options.max_calls`.
///
/// Runs in place on one private working copy: each recursion level
/// journals its reductions and conditioning in an UndoScope (core/graph.h)
/// and reverts them on return, so no level copies the graph, the input is
/// only read, and concurrent calls are safe.
Result<double> ExactReliabilityFactoring(const QueryGraph& query_graph,
                                         NodeId target,
                                         const FactoringOptions& options = {});

/// Factoring reliability for every answer node, each computed on its own
/// query-relevant subgraph. Returns scores indexed like
/// `query_graph.answers`.
Result<std::vector<double>> ExactReliabilityAllAnswers(
    const QueryGraph& query_graph, const FactoringOptions& options = {});

/// Exact reliability of `target` (an original node id) on a DAG: one sweep
/// in Kahn order (smallest dense id first) over the nodes on source-target
/// paths, whose states are 64-bit masks of reached open nodes (a successor
/// still to come) with their masses. Equal masks merge in first-seen
/// order, so the bits are a function of the snapshot; cost is exponential
/// in the frontier width alone. FailedPrecondition on a cycle, a frontier
/// past 64 nodes or too many live states.
Result<double> ExactReliabilityDagSweep(const CsrQuerySnapshot& snapshot,
                                        NodeId target);

}  // namespace biorank

#endif  // BIORANK_CORE_RELIABILITY_EXACT_H_
