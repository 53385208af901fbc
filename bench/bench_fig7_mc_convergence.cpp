// Reproduces Figure 7: speed of convergence of the Monte Carlo estimator
// — the reliability ranking's AP on scenario 1 as a function of the
// number of simulation trials (1 .. 10^5), averaged over repeated runs,
// against the closed-solution AP and the random baseline.
//
// Paper shape: AP climbs from the random baseline and is already at the
// closed-solution plateau by ~1,000 trials (hence "1000 trials already
// deliver very reliable results"). Paper uses m = 100; set
// BIORANK_REPS=100 to match. Repetitions fan out over the shared thread
// pool (BIORANK_THREADS); results are identical at any thread count.

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "api/server.h"
#include "bench_json.h"
#include "bench_util.h"
#include "eval/experiment_stats.h"
#include "integrate/scenario_harness.h"
#include "lane_duel.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

int main() {
  const int reps = bench::Repetitions(10);
  std::cout << "=== Figure 7: Monte Carlo convergence (m=" << reps
            << ") ===\n\n";

  bench::WallTimer total_timer;
  api::Server server;
  const ScenarioHarness& harness = server.harness();
  Result<std::vector<ScenarioQuery>> queries =
      harness.BuildQueries(ScenarioId::kScenario1WellKnown);
  if (!queries.ok()) {
    std::cerr << queries.status() << "\n";
    return 1;
  }

  // Closed-solution reference AP (deterministic).
  double closed_sum = 0.0;
  int closed_count = 0;
  double random_sum = 0.0;
  for (const ScenarioQuery& query : queries.value()) {
    if (query.relevant.empty()) continue;
    Result<double> ap =
        harness.ApForQuery(query, RankingMethod::kReliability);
    if (ap.ok()) {
      closed_sum += ap.value();
      ++closed_count;
    }
    Result<double> random = harness.RandomBaselineAp(query);
    if (random.ok()) random_sum += random.value();
  }
  double closed_ap = closed_count > 0 ? closed_sum / closed_count : 0.0;
  double random_ap = closed_count > 0 ? random_sum / closed_count : 0.0;

  TextTable table({"# trials", "Mean AP", "Stdv"});
  CsvWriter csv({"trials", "mean_ap", "stdev"});
  bench::JsonReport report("fig7_mc_convergence");
  const int64_t trial_counts[] = {1, 3, 10, 30, 100, 300, 1000, 3000, 10000};
  int64_t simulated_trials = 0;
  uint64_t seed = 1;
  bench::WallTimer mc_timer;
  for (int64_t trials : trial_counts) {
    ApExperiment experiment;
    for (const ScenarioQuery& query : queries.value()) {
      if (query.relevant.empty()) continue;
      // One root seed per (trials, query); repetition r draws from the
      // independent stream (seed, r), fanned out over the shared pool.
      Result<std::vector<double>> aps =
          harness.ApForMcReps(query, trials, reps, seed++);
      if (!aps.ok()) continue;
      for (double ap : aps.value()) {
        experiment.Record(std::to_string(trials), ap);
      }
      simulated_trials += trials * reps;
    }
    SampleStats stats = experiment.Summary(std::to_string(trials));
    table.AddRow({std::to_string(trials), FormatDouble(stats.mean, 3),
                  FormatDouble(stats.stddev, 3)});
    csv.AddRow({std::to_string(trials), FormatDouble(stats.mean, 4),
                FormatDouble(stats.stddev, 4)});
    report.AddRow({{"trials", trials},
                   {"mean_ap", stats.mean},
                   {"stdev", stats.stddev}});
  }
  double mc_seconds = mc_timer.Seconds();
  table.AddSeparator();
  table.AddRow({"closed solution", FormatDouble(closed_ap, 3), "-"});
  table.AddRow({"random baseline", FormatDouble(random_ap, 3), "-"});
  table.Print(std::cout);

  std::cout << "\nPaper: the curve reaches the closed-solution plateau "
               "(0.84) by ~1000 trials,\nstarting from the random baseline "
               "(0.42) at 1 trial.\n";
  bench::MaybeWriteCsv(csv, "fig7_mc_convergence");

  report.SetWallTime(total_timer.Seconds());
  report.SetMetric("reps", reps);
  report.SetMetric("mc_wall_time_s", mc_seconds);
  report.SetMetric("simulated_trials", simulated_trials);
  report.SetMetric("trials_per_sec",
                   mc_seconds > 0.0
                       ? static_cast<double>(simulated_trials) / mc_seconds
                       : 0.0);
  report.SetMetric("closed_solution_ap", closed_ap);
  report.SetMetric("random_baseline_ap", random_ap);

  // The 64-lane naive kernel the serve layer runs against the traversal
  // kernel the curve above ran, one thread each at 5000 trials per query.
  const bool lane_deterministic =
      bench::RunLaneDuel(queries.value(), 5000, report);
  report.SetMetric(
      "hardware_concurrency",
      static_cast<int64_t>(
          std::max(1u, std::thread::hardware_concurrency())));
  return report.Write().ok() && lane_deterministic ? 0 : 1;
}
