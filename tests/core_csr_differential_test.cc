// Differential lockdown of the CSR-vs-pointer backend contract: across
// ~125 seeded random graphs and the restriction corpus, reliability_mc,
// diffusion, and the per-candidate query-relevant restriction must be
// BIT-identical between the flat-snapshot and pointer-graph substrates,
// at 1 and 4 threads.
// Any divergence means the two paths flipped different coins (or summed
// in a different order) — the exact regression this suite exists to
// catch before it ships as a silent ranking change.

#include <cstdint>

#include <gtest/gtest.h>

#include "core/query_graph.h"
#include "testing/differential.h"
#include "testing/random_graphs.h"
#include "util/rng.h"

namespace biorank {
namespace {

using testing::CompareDiffusionBackends;
using testing::CompareMcBackends;
using testing::CompareRestrictionBackends;
using testing::DiffResult;
using testing::MakeRoundRobinGraph;

TEST(CsrDifferentialTest, ReliabilityMcBitIdentical) {
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    QueryGraph query = MakeRoundRobinGraph(rng, round);
    for (int threads : {1, 4}) {
      DiffResult r = CompareMcBackends(query, /*trials=*/1500,
                                       /*seed=*/1000 + round, threads);
      EXPECT_TRUE(r.ok) << "round " << round << ", " << threads
                        << " threads: " << r.message;
    }
  }
}

TEST(CsrDifferentialTest, ReliabilityMcNaiveModeBitIdentical) {
  // The naive sampler flips a coin for *every* element, so it exercises
  // the dense-iteration equivalence (dead nodes consume no draws in
  // either backend because p == 0 short-circuits the Bernoulli).
  Rng rng(77);
  for (int round = 0; round < 25; ++round) {
    QueryGraph query = MakeRoundRobinGraph(rng, round);
    for (int threads : {1, 4}) {
      DiffResult r =
          CompareMcBackends(query, /*trials=*/600, /*seed=*/31 + round,
                            threads, McOptions::Mode::kNaive);
      EXPECT_TRUE(r.ok) << "round " << round << ", " << threads
                        << " threads: " << r.message;
    }
  }
}

TEST(CsrDifferentialTest, DiffusionBitIdentical) {
  Rng rng(1717);
  for (int round = 0; round < 50; ++round) {
    QueryGraph query = MakeRoundRobinGraph(rng, round);
    DiffusionOptions options;
    options.max_iterations = 100;
    options.solver = (round % 2) == 0 ? DiffusionInnerSolver::kAnalytic
                                      : DiffusionInnerSolver::kBisection;
    DiffResult r = CompareDiffusionBackends(query, options);
    EXPECT_TRUE(r.ok) << "round " << round << ": " << r.message;
  }
}

TEST(CsrDifferentialTest, RestrictionAndCanonicalizationIdentical) {
  // Every other corpus graph carries tombstoned and parallel edges, the
  // shapes evidence deltas leave in live graphs.
  const std::vector<QueryGraph> corpus = testing::MakeRestrictionCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    DiffResult r = CompareRestrictionBackends(corpus[i]);
    EXPECT_TRUE(r.ok) << "corpus graph " << i << ": " << r.message;
  }
}

TEST(CsrDifferentialTest, ShardGranularityInvariance) {
  // Same seed, different shard sizes: each backend must change results
  // the same way (shard plan is part of the reproducibility key, not a
  // backend detail).
  Rng rng(62);
  QueryGraph query = MakeRoundRobinGraph(rng, 0);
  for (int64_t shard_trials : {1, 7, 64, 512}) {
    McOptions mc;
    mc.trials = 999;
    mc.seed = 11;
    mc.shard_trials = shard_trials;
    mc.num_threads = 4;
    mc.backend = McOptions::Backend::kCsrSnapshot;
    Result<McEstimate> csr = EstimateReliabilityMc(query, mc);
    mc.backend = McOptions::Backend::kPointerView;
    Result<McEstimate> ptr = EstimateReliabilityMc(query, mc);
    ASSERT_TRUE(csr.ok() && ptr.ok());
    EXPECT_TRUE(
        testing::ScoresBitIdentical(csr.value().scores, ptr.value().scores))
        << "shard_trials=" << shard_trials;
  }
}

}  // namespace
}  // namespace biorank
