// Differential harness for the CSR-vs-pointer backend contract: every
// comparison runs the same computation on both substrates and reports
// the first bit-level divergence. Scores are compared by bit pattern
// (memcmp), never by tolerance — the contract is "same coins, same
// order, same arithmetic", not "close enough".

#ifndef BIORANK_TESTS_TESTING_DIFFERENTIAL_H_
#define BIORANK_TESTS_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/diffusion.h"
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

/// Runs Diffuse with both backends and compares scores (bitwise),
/// iteration counts, and convergence flags.
DiffResult CompareDiffusionBackends(const QueryGraph& query_graph,
                                    const DiffusionOptions& base);

/// Canonicalizes every answer twice, restricting over the pointer graph
/// (the reference) and target-first over a CSR snapshot: keys, canonical
/// targets, reduction stats, the canonical graphs (bit for bit) and the
/// provenance footprints must match exactly.
DiffResult CompareRestrictionBackends(const QueryGraph& query_graph);

}  // namespace biorank::testing

#endif  // BIORANK_TESTS_TESTING_DIFFERENTIAL_H_
