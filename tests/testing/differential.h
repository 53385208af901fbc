// Differential harness for the Monte Carlo CSR-vs-pointer backend
// contract: a comparison runs the same estimate on both substrates and
// reports the first bit-level divergence. Scores are compared by bit
// pattern (memcmp), never by tolerance — the contract is "same coins,
// same order, same arithmetic", not "close enough". MC is the one
// computation with a pointer reference left: the per-answer restriction
// has a single CSR implementation (core/graph_algo's RestrictToTarget),
// whose results core_canonical_test's and core_factoring_golden_test's
// fixtures pin.

#ifndef BIORANK_TESTS_TESTING_DIFFERENTIAL_H_
#define BIORANK_TESTS_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_graph.h"
#include "core/reliability_mc.h"

namespace biorank::testing {

/// Outcome of one differential comparison. `ok` means bit-identical;
/// otherwise `message` pinpoints the first divergence (suitable for
/// EXPECT_TRUE(r.ok) << r.message).
struct DiffResult {
  bool ok = true;
  std::string message;
};

/// True iff the two vectors have equal length and bitwise-equal contents
/// (NaN matches NaN, +0.0 differs from -0.0).
bool ScoresBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Runs EstimateReliabilityMc on `query_graph` with the CSR and pointer
/// backends (same trials/seed/mode/threading) and compares the full score
/// vectors bitwise.
DiffResult CompareMcBackends(const QueryGraph& query_graph, int64_t trials,
                             uint64_t seed, int num_threads,
                             McOptions::Mode mode =
                                 McOptions::Mode::kTraversal);

}  // namespace biorank::testing

#endif  // BIORANK_TESTS_TESTING_DIFFERENTIAL_H_
