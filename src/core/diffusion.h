// Additive relevance diffusion with flow thresholds (Section 3.3) -
// the paper's "Diff" score. Each node splits its relevance across
// out-edges; the inner flow equation is solved analytically or by
// bisection.

#ifndef BIORANK_CORE_DIFFUSION_H_
#define BIORANK_CORE_DIFFUSION_H_

#include <vector>

#include "core/propagation.h"
#include "core/query_graph.h"
#include "util/status.h"

namespace biorank {

/// How the implicit per-node inflow equation of the diffusion semantics is
/// solved (the `solve` call of Algorithm 3.3).
enum class DiffusionInnerSolver {
  /// Exact solution in O(d log d) per node: sort parent scores, then the
  /// fixpoint is t = (sum_{i<=m} r_i q_i) / (1 + sum_{i<=m} q_i) for the
  /// unique prefix m consistent with r_m >= t >= r_{m+1}.
  kAnalytic,
  /// Bisection on g(t) = f(t) - t (g is strictly decreasing), the robust
  /// form of the paper's inner iteration. Kept for the ablation benchmark.
  kBisection,
};

/// Options for relevance diffusion (Algorithm 3.3).
struct DiffusionOptions {
  int max_iterations = 200;     ///< Outer synchronous iterations cap.
  double tolerance = 1e-10;     ///< Outer convergence threshold.
  DiffusionInnerSolver solver = DiffusionInnerSolver::kAnalytic;
  int bisection_steps = 64;     ///< Inner iterations for kBisection, >= 1.
};

/// Relevance diffusion (Section 3.3): relevance flows from x to y only
/// while r(x) exceeds y's inflow level r_bar(y), and inflows add instead
/// of independent-OR:
///   r_bar(y) = sum_{(x,y) in E} max[(r(x) - r_bar(y)) * q(x,y), 0]
///   r(y)     = r_bar(y) * p(y)
/// The inflow equation is implicit in r_bar(y); each outer iteration
/// solves it per node from the previous iteration's parent scores. Favours
/// few strong paths over many weak ones and penalizes long paths.
Result<IterativeScores> Diffuse(const QueryGraph& query_graph,
                                const DiffusionOptions& options = {});

/// Solves t = sum_i max((r[i] - t) * q[i], 0) for the unique t >= 0.
/// Exposed for tests and the inner-solver ablation benchmark.
double SolveDiffusionInflow(const std::vector<double>& parent_scores,
                            const std::vector<double>& edge_probs,
                            DiffusionInnerSolver solver,
                            int bisection_steps = 64);

}  // namespace biorank

#endif  // BIORANK_CORE_DIFFUSION_H_
