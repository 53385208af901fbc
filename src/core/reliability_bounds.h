// Deterministic two-sided bounds on the #P-hard reliability value,
// used to prune candidates in top-k ranking (serve/refinement.h) before
// spending Monte Carlo trials on them.

#ifndef BIORANK_CORE_RELIABILITY_BOUNDS_H_
#define BIORANK_CORE_RELIABILITY_BOUNDS_H_

#include "core/query_graph.h"
#include "util/status.h"

namespace biorank {

/// Deterministic two-sided bounds on a #P-hard quantity.
struct ReliabilityBounds {
  double lower = 0.0;  ///< Exact reliability of the k-best-paths subgraph.
  double upper = 1.0;  ///< Propagation score (dominates reliability).
  int paths_used = 0;  ///< How many evidence paths the lower bound uses.
};

/// Options for the bound computation.
struct ReliabilityBoundsOptions {
  /// How many strongest evidence paths feed the lower bound. More paths
  /// tighten it monotonically; the per-call cost is an exact reliability
  /// computation on the union subgraph (small by construction).
  int max_paths = 8;
};

/// Brackets the reliability of `target` without Monte Carlo:
///  - lower bound: the exact reliability of the subgraph formed by the
///    union of the k most probable source->target paths (a sub-event of
///    "connected", so never an overestimate);
///  - upper bound: the propagation score, which treats converging paths
///    as independent and therefore dominates reliability (Section 3.2).
/// Useful to certify a ranking decision without simulation, or to decide
/// whether simulation is needed at all (bounds often already separate
/// two answers).
Result<ReliabilityBounds> BoundReliability(
    const QueryGraph& query_graph, NodeId target,
    const ReliabilityBoundsOptions& options = {});

}  // namespace biorank

#endif  // BIORANK_CORE_RELIABILITY_BOUNDS_H_
