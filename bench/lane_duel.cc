#include "lane_duel.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "util/parallel.h"
#include "util/strings.h"

namespace biorank::bench {

std::vector<double> EstimateAllQueries(
    const std::vector<ScenarioQuery>& queries, const McOptions& options) {
  std::vector<double> all_scores;
  for (const ScenarioQuery& query : queries) {
    Result<McEstimate> estimate = EstimateReliabilityMc(query.graph, options);
    if (!estimate.ok()) {
      std::cerr << estimate.status() << "\n";
      std::exit(1);
    }
    all_scores.insert(all_scores.end(), estimate.value().scores.begin(),
                      estimate.value().scores.end());
  }
  return all_scores;
}

bool RunLaneDuel(const std::vector<ScenarioQuery>& queries, int64_t trials,
                 JsonReport& report) {
  ThreadPool inline_pool(0);
  McOptions traversal;
  traversal.trials = trials;
  traversal.seed = 7;
  traversal.pool = &inline_pool;
  traversal.num_threads = 1;
  McOptions naive = traversal;
  naive.mode = McOptions::Mode::kNaive;
  double traversal_s = std::numeric_limits<double>::infinity();
  double naive_s = std::numeric_limits<double>::infinity();
  std::vector<double> naive_scores;
  for (int pass = 0; pass < 3; ++pass) {
    WallTimer traversal_timer;
    EstimateAllQueries(queries, traversal);
    traversal_s = std::min(traversal_s, traversal_timer.Seconds());
    WallTimer naive_timer;
    naive_scores = EstimateAllQueries(queries, naive);
    naive_s = std::min(naive_s, naive_timer.Seconds());
  }
  ThreadPool pool(3);
  McOptions parallel = naive;
  parallel.pool = &pool;
  parallel.num_threads = 4;
  const bool deterministic =
      EstimateAllQueries(queries, parallel) == naive_scores;
  const double speedup = naive_s > 0.0 ? traversal_s / naive_s : 0.0;
  std::cout << "\n64-lane naive vs traversal MC (1 thread, " << trials
            << " trials/query): " << FormatDouble(speedup, 2)
            << "x; naive scores at 4 threads "
            << (deterministic ? "bit-identical" : "NOT IDENTICAL (BUG)")
            << " to 1 thread.\n";
  report.SetMetric("lane_traversal_s", traversal_s);
  report.SetMetric("lane_naive_s", naive_s);
  report.SetMetric("lane_speedup", speedup);
  report.SetMetric("lane_deterministic", deterministic);
  return deterministic;
}

}  // namespace biorank::bench
