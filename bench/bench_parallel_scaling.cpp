// Parallel scaling of the Monte Carlo reliability engine on the Figure 7
// workload (the 20 scenario-1 query graphs): wall time, trials/sec, and
// speedup vs the single-thread path, swept over 1/2/4/8 threads but
// clamped to std::thread::hardware_concurrency() — timing an
// oversubscribed pool only produces misleading ≈1x "speedup" rows on
// small machines (a 1-core container would otherwise report four
// identical sweep points). The clamp is recorded in the JSON
// (hardware_concurrency, thread_sweep_clamped, threads_swept) so the CI
// perf-trend job can tell a clamped sweep from a regression. The
// bit-identical determinism check still runs at up to 8 threads
// regardless of the clamp: correctness must hold oversubscribed too.
//
// Expected shape: near-linear speedup up to the physical core count
// (trials are embarrassingly parallel; the only serial work is the final
// count reduction).

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "api/server.h"
#include "bench_json.h"
#include "bench_util.h"
#include "core/reliability_mc.h"
#include "integrate/scenario_harness.h"
#include "lane_duel.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

namespace {

/// One timed pass: MC reliability for every query at the given
/// parallelism. Returns concatenated scores for the determinism check.
std::vector<double> RunAllQueries(const std::vector<ScenarioQuery>& queries,
                                  int64_t trials, ThreadPool& pool) {
  McOptions mc;
  mc.trials = trials;
  mc.seed = 42;
  mc.pool = &pool;
  return bench::EstimateAllQueries(queries, mc);
}

}  // namespace

int main() {
  const int reps = bench::Repetitions(3);
  const int64_t trials = 20000;
  std::cout << "=== Parallel scaling: MC reliability on the Fig. 7 workload"
            << " (" << reps << " passes, " << trials
            << " trials/graph) ===\n\n";

  bench::WallTimer total_timer;
  api::Server server;
  const ScenarioHarness& harness = server.harness();
  Result<std::vector<ScenarioQuery>> queries =
      harness.BuildQueries(ScenarioId::kScenario1WellKnown);
  if (!queries.ok()) {
    std::cerr << queries.status() << "\n";
    return 1;
  }
  const int64_t total_trials =
      trials * static_cast<int64_t>(queries.value().size()) * reps;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> sweep;
  bool clamped = false;
  for (int threads : {1, 2, 4, 8}) {
    if (threads == 1 || static_cast<unsigned>(threads) <= hw) {
      sweep.push_back(threads);
    } else {
      clamped = true;
    }
  }

  TextTable table({"threads", "wall s", "Mtrials/s", "speedup vs 1"});
  bench::JsonReport report("parallel_scaling");
  double single_thread_s = 0.0;
  double speedup_at_4 = 0.0;
  bool deterministic = true;
  std::vector<double> reference_scores;

  for (int threads : sweep) {
    ThreadPool pool(threads - 1);
    // Warm pass: pages in the graphs and populates per-slot scratch. It
    // doubles as this thread count's point on the bit-identity ladder
    // (1 thread runs first, so the reference exists before comparisons).
    std::vector<double> scores =
        RunAllQueries(queries.value(), trials, pool);
    if (threads == 1) {
      reference_scores = scores;
    } else if (scores != reference_scores) {
      deterministic = false;
    }

    bench::WallTimer timer;
    for (int rep = 0; rep < reps; ++rep) {
      RunAllQueries(queries.value(), trials, pool);
    }
    double seconds = timer.Seconds();
    if (threads == 1) single_thread_s = seconds;
    double speedup = single_thread_s > 0.0 ? single_thread_s / seconds : 0.0;
    if (threads == 4) speedup_at_4 = speedup;
    double trials_per_sec =
        seconds > 0.0 ? static_cast<double>(total_trials) / seconds : 0.0;

    table.AddRow({std::to_string(threads), FormatDouble(seconds, 3),
                  FormatDouble(trials_per_sec / 1e6, 2),
                  FormatDouble(speedup, 2)});
    report.AddRow({{"threads", threads},
                   {"wall_time_s", seconds},
                   {"trials_per_sec", trials_per_sec},
                   {"speedup_vs_1thread", speedup}});
  }

  // Ladder points the clamped timed sweep skipped: bit-identity must
  // hold oversubscribed too (clamping is a timing concern only).
  for (int threads : {2, 4, 8}) {
    if (std::find(sweep.begin(), sweep.end(), threads) != sweep.end()) {
      continue;
    }
    ThreadPool pool(threads - 1);
    if (RunAllQueries(queries.value(), trials, pool) != reference_scores) {
      deterministic = false;
    }
  }
  table.Print(std::cout);

  // The 64-lane naive kernel the serve layer runs against the traversal
  // kernel timed above, one thread each at the same trials per graph.
  const bool lane_deterministic =
      bench::RunLaneDuel(queries.value(), trials, report);

  std::cout << "\nDeterminism: scores at 2/4/8 threads are "
            << (deterministic ? "bit-identical" : "NOT IDENTICAL (BUG)")
            << " to the single-thread path.\n"
            << "Hardware concurrency: " << hw
            << (clamped ? " (timed sweep clamped to it)" : "") << ".\n";

  report.SetThreads(sweep.back());
  report.SetWallTime(total_timer.Seconds());
  report.SetMetric("trials_per_graph", trials);
  report.SetMetric("graphs",
                   static_cast<int64_t>(queries.value().size()));
  report.SetMetric("passes", reps);
  // Only meaningful when 4 real cores exist; absent on clamped sweeps so
  // downstream tooling cannot mistake an oversubscribed ≈1x for data.
  if (std::find(sweep.begin(), sweep.end(), 4) != sweep.end()) {
    report.SetMetric("speedup_at_4_threads", speedup_at_4);
  }
  report.SetMetric("deterministic_across_threads", deterministic);
  report.SetMetric("hardware_concurrency", static_cast<int64_t>(hw));
  report.SetMetric("thread_sweep_clamped", clamped);
  report.SetMetric("threads_swept", static_cast<int64_t>(sweep.size()));
  report.SetMetric("max_threads_timed", sweep.back());
  Status write_status = report.Write();
  return deterministic && lane_deterministic && write_status.ok() ? 0 : 1;
}
