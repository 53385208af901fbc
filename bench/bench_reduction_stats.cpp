// Reproduces the Section 4 "Efficiency" text claims:
//  - the reduction rules shrink the 20 scenario-1 query graphs by ~78%
//    (nodes + edges);
//  - the traversal Monte Carlo simulation (Algorithm 3.1) is ~3.4x faster
//    than the naive simulate-everything variant;
//  - reduction plus traversal MC is ~13.4x faster than naive MC.
// The paper's naive variant was a scalar sampler, one trial at a time.
// The naive kernel here (McOptions::Mode::kNaive) runs 64 trials at a
// time and is faster than traversal, so the naive-relative rows measure
// against it, not against the paper's baseline.

#include <chrono>
#include <iostream>

#include "api/server.h"
#include "bench_json.h"
#include "bench_util.h"
#include "core/reduction.h"
#include "core/reliability_mc.h"
#include "integrate/scenario_harness.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

namespace {

double TimeMcMs(const QueryGraph& graph, McOptions::Mode mode,
                int64_t trials, uint64_t seed) {
  McOptions options;
  options.mode = mode;
  options.trials = trials;
  options.seed = seed;
  // Single-threaded on purpose: this compares the *algorithms* (naive vs
  // traversal vs reduced), not the parallel engine; see
  // bench_parallel_scaling for thread scaling.
  options.num_threads = 1;
  auto start = std::chrono::steady_clock::now();
  EstimateReliabilityMc(graph, options).value();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  std::cout << "=== Graph reduction and traversal-MC statistics ===\n\n";

  bench::WallTimer total_timer;
  bench::JsonReport report("reduction_stats");
  api::Server server;
  const ScenarioHarness& harness = server.harness();
  Result<std::vector<ScenarioQuery>> queries =
      harness.BuildQueries(ScenarioId::kScenario1WellKnown);
  if (!queries.ok()) {
    std::cerr << queries.status() << "\n";
    return 1;
  }

  TextTable table({"Protein", "Nodes", "Edges", "Nodes'", "Edges'",
                   "Removed"});
  CsvWriter csv({"protein", "nodes_before", "edges_before", "nodes_after",
                 "edges_after", "removed_fraction"});
  std::vector<double> removed, nodes, edges;
  std::vector<QueryGraph> reduced_graphs;
  for (const ScenarioQuery& query : queries.value()) {
    QueryGraph reduced = query.graph;
    ReductionStats stats = ReduceQueryGraph(reduced);
    reduced_graphs.push_back(std::move(reduced));
    removed.push_back(stats.RemovedFraction());
    nodes.push_back(stats.nodes_before);
    edges.push_back(stats.edges_before);
    table.AddRow({query.spec.gene_symbol, std::to_string(stats.nodes_before),
                  std::to_string(stats.edges_before),
                  std::to_string(stats.nodes_after),
                  std::to_string(stats.edges_after),
                  FormatDouble(stats.RemovedFraction() * 100, 1) + "%"});
    csv.AddRow({query.spec.gene_symbol, std::to_string(stats.nodes_before),
                std::to_string(stats.edges_before),
                std::to_string(stats.nodes_after),
                std::to_string(stats.edges_after),
                FormatDouble(stats.RemovedFraction(), 4)});
  }
  table.AddSeparator();
  table.AddRow({"Mean", FormatDouble(Mean(nodes), 0),
                FormatDouble(Mean(edges), 0), "", "",
                FormatDouble(Mean(removed) * 100, 1) + "%"});
  table.Print(std::cout);
  std::cout << "\nPaper: graphs average 520 nodes / 695 edges; reductions "
               "remove 78% of elements.\n\n";

  // MC speedups, averaged over the 20 graphs (1000 trials each).
  std::vector<double> naive_ms, traversal_ms, reduced_traversal_ms;
  uint64_t seed = 0;
  for (size_t i = 0; i < queries.value().size(); ++i) {
    const QueryGraph& graph = queries.value()[i].graph;
    naive_ms.push_back(
        TimeMcMs(graph, McOptions::Mode::kNaive, 1000, seed++));
    traversal_ms.push_back(
        TimeMcMs(graph, McOptions::Mode::kTraversal, 1000, seed++));
    reduced_traversal_ms.push_back(TimeMcMs(
        reduced_graphs[i], McOptions::Mode::kTraversal, 1000, seed++));
  }
  double naive = Mean(naive_ms);
  double traversal = Mean(traversal_ms);
  double reduced_traversal = Mean(reduced_traversal_ms);

  TextTable timing({"Variant", "Mean ms / graph", "Speedup vs naive"});
  timing.AddRow({"64-lane naive MC (all coins)", FormatDouble(naive, 2),
                 "1.0x"});
  timing.AddRow({"traversal MC (Algorithm 3.1)", FormatDouble(traversal, 2),
                 FormatDouble(naive / traversal, 1) + "x"});
  timing.AddRow({"reduction + traversal MC",
                 FormatDouble(reduced_traversal, 2),
                 FormatDouble(naive / reduced_traversal, 1) + "x"});
  timing.Print(std::cout);
  std::cout << "\nPaper: traversal 3.4x (-70%), reduction + traversal "
               "13.4x (-93%),\nmeasured against a scalar naive sampler "
               "(one trial at a time), which this\nrepository no longer "
               "has: the naive row above times the 64-lane kernel.\nSee "
               "bench_fig7_mc_convergence's lane_speedup for that kernel "
               "against traversal.\n";
  bench::MaybeWriteCsv(csv, "reduction_stats");
  report.SetWallTime(total_timer.Seconds());
  report.SetThreads(1);
  report.SetMetric("mean_removed_fraction", Mean(removed));
  report.SetMetric("naive_ms_per_graph", naive);
  report.SetMetric("traversal_ms_per_graph", traversal);
  report.SetMetric("reduced_traversal_ms_per_graph", reduced_traversal);
  report.SetMetric("traversal_speedup_vs_naive", naive / traversal);
  report.SetMetric("reduced_traversal_speedup_vs_naive",
                   naive / reduced_traversal);
  return report.Write().ok() ? 0 : 1;
}
