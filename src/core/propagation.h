// Independent-OR relevance propagation (Section 3.2) - the paper's
// "Prop" score: a local fixpoint where a node's relevance is the
// noisy-OR of its parents' contributions.

#ifndef BIORANK_CORE_PROPAGATION_H_
#define BIORANK_CORE_PROPAGATION_H_

#include <vector>

#include "core/query_graph.h"
#include "util/status.h"

namespace biorank {

/// Shared result type of the two iterative scoring algorithms
/// (propagation, Section 3.2; diffusion, Section 3.3).
struct IterativeScores {
  /// Per-NodeId relevance, node_capacity() long; the source is pinned at
  /// 1, dead nodes at 0.
  std::vector<double> scores;
  int iterations = 0;     ///< Outer iterations actually performed.
  bool converged = false; ///< Max score change fell below the tolerance.
};

/// Options for relevance propagation (Algorithm 3.2).
struct PropagationOptions {
  /// Safety cap on synchronous iterations. On DAGs the fixpoint is reached
  /// after at most the longest path length (Section 3.2); on cyclic graphs
  /// convergence is geometric.
  int max_iterations = 200;
  /// Stop once no score moves more than this between iterations.
  double tolerance = 1e-12;
};

/// Relevance propagation (Algorithm 3.2): each node's score depends only
/// on its parents, treating parent paths as independent,
///   r(y) = (1 - prod_{(x,y) in E} (1 - r(x) * q(x,y))) * p(y),
/// iterated synchronously from r(source) = 1. Because evidence combines
/// with independent-OR at each node, propagation scores dominate
/// reliability scores (tested as a property).
Result<IterativeScores> Propagate(const QueryGraph& query_graph,
                                  const PropagationOptions& options = {});

}  // namespace biorank

#endif  // BIORANK_CORE_PROPAGATION_H_
