#include "core/diffusion.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/csr_snapshot.h"

namespace biorank {

namespace {

double SolveAnalytic(std::vector<std::pair<double, double>>& parents) {
  // Sort by parent score descending; only parents with r > t contribute.
  std::sort(parents.begin(), parents.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double weighted_sum = 0.0;  // sum_{i<=m} r_i q_i
  double weight = 0.0;        // sum_{i<=m} q_i
  for (size_t m = 0; m < parents.size(); ++m) {
    weighted_sum += parents[m].first * parents[m].second;
    weight += parents[m].second;
    double t = weighted_sum / (1.0 + weight);
    double next_r = (m + 1 < parents.size()) ? parents[m + 1].first : 0.0;
    // Consistency: every included parent flows (r_m >= t), every excluded
    // parent does not (t >= r_{m+1}).
    if (parents[m].first >= t && t >= next_r) return t;
  }
  return 0.0;
}

double SolveBisection(const std::vector<std::pair<double, double>>& parents,
                      int steps) {
  double hi = 0.0;
  for (const auto& [r, q] : parents) hi += std::max(r, 0.0) * q;
  if (hi <= 0.0) return 0.0;
  auto f = [&](double t) {
    double sum = 0.0;
    for (const auto& [r, q] : parents) sum += std::max((r - t) * q, 0.0);
    return sum;
  };
  double lo = 0.0;
  for (int i = 0; i < steps; ++i) {
    double mid = 0.5 * (lo + hi);
    if (f(mid) > mid) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Diffuse's kCsrSnapshot sweep over a CSR query snapshot (options are
/// already validated). Scores come back indexed by the snapshot's
/// original NodeIds (dropped nodes score 0).
Result<IterativeScores> DiffuseOnSnapshot(const CsrQuerySnapshot& snapshot,
                                          const DiffusionOptions& options) {
  const CsrSnapshot& csr = snapshot.csr;
  const uint32_t source = snapshot.source;
  if (source == kCsrInvalid || source >= csr.num_nodes()) {
    return Status::InvalidArgument("diffusion snapshot has no valid source");
  }
  const uint32_t n = csr.num_nodes();

  // Dense sweep state; expanded back to original NodeId indexing at the
  // end. Dropped (dead) nodes would compute 0 every iteration in the
  // pointer path, so skipping them changes neither scores nor max_delta.
  std::vector<double> scores(n, 0.0);
  scores[source] = 1.0;
  std::vector<double> next(n, 0.0);
  std::vector<std::pair<double, double>> parents;

  IterativeScores result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (uint32_t y = 0; y < n; ++y) {
      if (y == source) {
        next[y] = 1.0;
        continue;
      }
      if (csr.node_p[y] <= 0.0) {
        next[y] = 0.0;
        continue;
      }
      parents.clear();
      const uint32_t end = csr.in_offset[y + 1];
      for (uint32_t i = csr.in_offset[y]; i < end; ++i) {
        const double r = scores[csr.in_from[i]];
        const double q = csr.in_q[i];
        if (r > 0.0 && q > 0.0) parents.emplace_back(r, q);
      }
      double inflow;
      if (parents.empty()) {
        inflow = 0.0;
      } else if (options.solver == DiffusionInnerSolver::kAnalytic) {
        inflow = SolveAnalytic(parents);
      } else {
        inflow = SolveBisection(parents, options.bisection_steps);
      }
      next[y] = inflow * csr.node_p[y];
      max_delta = std::max(max_delta, std::abs(next[y] - scores[y]));
    }
    std::swap(scores, next);
    result.iterations = iter + 1;
    if (max_delta <= options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores.assign(static_cast<size_t>(csr.orig_capacity()), 0.0);
  for (uint32_t d = 0; d < n; ++d) {
    result.scores[static_cast<size_t>(csr.orig_id[d])] = scores[d];
  }
  return result;
}

}  // namespace

double SolveDiffusionInflow(const std::vector<double>& parent_scores,
                            const std::vector<double>& edge_probs,
                            DiffusionInnerSolver solver,
                            int bisection_steps) {
  std::vector<std::pair<double, double>> parents;
  parents.reserve(parent_scores.size());
  for (size_t i = 0; i < parent_scores.size() && i < edge_probs.size(); ++i) {
    if (edge_probs[i] > 0.0 && parent_scores[i] > 0.0) {
      parents.emplace_back(parent_scores[i], edge_probs[i]);
    }
  }
  if (parents.empty()) return 0.0;
  if (solver == DiffusionInnerSolver::kAnalytic) {
    return SolveAnalytic(parents);
  }
  return SolveBisection(parents, bisection_steps);
}

Result<IterativeScores> Diffuse(const QueryGraph& query_graph,
                                const DiffusionOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("diffusion: max_iterations must be >= 1");
  }
  if (options.backend == DiffusionOptions::Backend::kCsrSnapshot) {
    Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(query_graph);
    if (!snapshot.ok()) return snapshot.status();
    return DiffuseOnSnapshot(snapshot.value(), options);
  }

  CompactGraphView view = CompactGraphView::FromGraph(query_graph.graph);
  const int n = view.node_count();
  const NodeId source = query_graph.source;

  IterativeScores result;
  result.scores.assign(n, 0.0);
  result.scores[source] = 1.0;
  std::vector<double> next(n, 0.0);
  std::vector<std::pair<double, double>> parents;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (NodeId y = 0; y < n; ++y) {
      if (y == source) {
        next[y] = 1.0;
        continue;
      }
      if (view.node_p[y] <= 0.0) {
        next[y] = 0.0;
        continue;
      }
      parents.clear();
      for (int32_t i = view.in_offset[y]; i < view.in_offset[y + 1]; ++i) {
        double r = result.scores[view.edge_from[i]];
        double q = view.in_edge_q[i];
        if (r > 0.0 && q > 0.0) parents.emplace_back(r, q);
      }
      double inflow;
      if (parents.empty()) {
        inflow = 0.0;
      } else if (options.solver == DiffusionInnerSolver::kAnalytic) {
        inflow = SolveAnalytic(parents);
      } else {
        inflow = SolveBisection(parents, options.bisection_steps);
      }
      next[y] = inflow * view.node_p[y];
      max_delta = std::max(max_delta, std::abs(next[y] - result.scores[y]));
    }
    std::swap(result.scores, next);
    result.iterations = iter + 1;
    if (max_delta <= options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace biorank
