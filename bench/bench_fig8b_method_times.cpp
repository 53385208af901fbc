// Reproduces Figure 8b: wall-clock time of the five ranking methods over
// the 20 scenario-1 query graphs. Reliability uses the paper's benchmark
// configuration (reduction + 1,000-trial Monte Carlo, its overall
// fastest).
//
// Paper (ms per graph): Rel 17.9, Prop 5.2, Diff 5.8, InEdge 0.5,
// PathC 1.0 — probabilistic scoring costs 1-2 orders of magnitude more
// than the deterministic counts but stays well under 100 ms.

#include <benchmark/benchmark.h>

#include "api/server.h"
#include "bench_gbench_json.h"

#include "core/ranking.h"
#include "integrate/scenario_harness.h"

using namespace biorank;

namespace {

const std::vector<ScenarioQuery>& Scenario1Queries() {
  static const std::vector<ScenarioQuery>* queries = [] {
    static api::Server server;
    auto result = server.harness().BuildQueries(ScenarioId::kScenario1WellKnown);
    return new std::vector<ScenarioQuery>(std::move(result.value()));
  }();
  return *queries;
}

const Ranker& BenchRanker() {
  static const Ranker* ranker = [] {
    RankerOptions options;
    // The paper's benchmark reliability engine: reduction + MC 1000.
    options.reliability_engine = ReliabilityEngine::kMonteCarlo;
    options.mc.trials = 1000;
    return new Ranker(options);
  }();
  return *ranker;
}

void RankAllGraphs(benchmark::State& state, RankingMethod method) {
  for (auto _ : state) {
    for (const ScenarioQuery& q : Scenario1Queries()) {
      benchmark::DoNotOptimize(BenchRanker().Rank(q.graph, method));
    }
  }
  state.counters["graphs"] =
      static_cast<double>(Scenario1Queries().size());
}

void BM_Reliability(benchmark::State& state) {
  RankAllGraphs(state, RankingMethod::kReliability);
}
BENCHMARK(BM_Reliability)->Unit(benchmark::kMillisecond);

void BM_Propagation(benchmark::State& state) {
  RankAllGraphs(state, RankingMethod::kPropagation);
}
BENCHMARK(BM_Propagation)->Unit(benchmark::kMillisecond);

void BM_Diffusion(benchmark::State& state) {
  RankAllGraphs(state, RankingMethod::kDiffusion);
}
BENCHMARK(BM_Diffusion)->Unit(benchmark::kMillisecond);

void BM_InEdge(benchmark::State& state) {
  RankAllGraphs(state, RankingMethod::kInEdge);
}
BENCHMARK(BM_InEdge)->Unit(benchmark::kMillisecond);

void BM_PathCount(benchmark::State& state) {
  RankAllGraphs(state, RankingMethod::kPathCount);
}
BENCHMARK(BM_PathCount)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return biorank::bench::RunBenchmarksWithJson("fig8b_method_times", argc, argv);
}
