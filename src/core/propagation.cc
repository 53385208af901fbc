#include "core/propagation.h"

#include <algorithm>
#include <cmath>

#include "core/csr_snapshot.h"

namespace biorank {

Result<IterativeScores> Propagate(const QueryGraph& query_graph,
                                  const PropagationOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("propagation: max_iterations must be >= 1");
  }

  // Dense sweep over the alive nodes; a dead node would score 0 on every
  // iteration, so leaving it out changes neither scores nor max_delta.
  const CsrSnapshot csr = BuildCsrSnapshot(query_graph.graph);
  const uint32_t n = csr.num_nodes();
  const uint32_t source = csr.dense_id[static_cast<size_t>(query_graph.source)];

  std::vector<double> scores(n, 0.0);
  scores[source] = 1.0;
  std::vector<double> next(n, 0.0);

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
      double fail_all = 1.0;
      const uint32_t end = csr.in_offset[y + 1];
      for (uint32_t i = csr.in_offset[y]; i < end; ++i) {
        fail_all *= 1.0 - scores[csr.in_from[i]] * csr.in_q[i];
      }
      next[y] = (1.0 - fail_all) * csr.node_p[y];
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

}  // namespace biorank
