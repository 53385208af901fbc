// The lane duel that bench_fig7_mc_convergence and bench_parallel_scaling
// both report: the 64-lane naive kernel (McOptions::Mode::kNaive, the one
// the serve layer runs) against the traversal kernel (Algorithm 3.1, the
// default) on the same graphs at the same trial count, both on one
// thread, plus the naive kernel's thread-count invariance.

#ifndef BIORANK_BENCH_LANE_DUEL_H_
#define BIORANK_BENCH_LANE_DUEL_H_

#include <cstdint>
#include <vector>

#include "bench_json.h"
#include "core/reliability_mc.h"
#include "integrate/scenario_harness.h"

namespace biorank::bench {

/// MC reliability for every query graph under `options`; returns the
/// concatenated score vectors. Exits on an MC error.
std::vector<double> EstimateAllQueries(
    const std::vector<ScenarioQuery>& queries, const McOptions& options);

/// Times one single-thread pass of each kernel over every query graph
/// at `trials` trials, three times alternating, and keeps each kernel's
/// fastest pass. Records `lane_speedup` (traversal seconds over naive
/// seconds), `lane_traversal_s`, `lane_naive_s` and `lane_deterministic`
/// (naive scores identical at 1 and 4 threads) in `report`, prints a
/// summary line, and returns `lane_deterministic`. Exits on an MC error.
bool RunLaneDuel(const std::vector<ScenarioQuery>& queries, int64_t trials,
                 JsonReport& report);

}  // namespace biorank::bench

#endif  // BIORANK_BENCH_LANE_DUEL_H_
