// The Monte Carlo golden: FNV-1a 64 of the traversal estimator's score
// bits over the round-robin corpus, at 1 and 4 threads and four shard
// sizes. The fixture pins the coins Algorithm 3.1 flips on the CSR
// snapshot, in order, so any change to the sampler, the per-shard
// streams, the threshold mapping or the tally sum fails here instead of
// shipping as a silent ranking change.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/query_graph.h"
#include "core/reliability_mc.h"
#include "testing/random_graphs.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace biorank {
namespace {

std::string Hex(uint64_t bits) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, bits);
  return hex;
}

/// FNV-1a 64 over every score's bits, least significant byte first.
uint64_t HashScoreBits(const std::vector<double>& scores) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (double score : scores) {
    uint64_t bits;
    std::memcpy(&bits, &score, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

constexpr char kGoldenHeader[] =
    "# Monte Carlo golden fixture, asserted by core_mc_golden_test. One\n"
    "# line per (graph, threads, shard_trials) for the traversal kernel\n"
    "# (Algorithm 3.1) at 1500 trials, seed 1000 + round, over 25\n"
    "# round-robin graphs from Rng(20260808): round, threads,\n"
    "# shard_trials, score vector length, FNV-1a 64 of all score bits\n"
    "# (each score least significant byte first).\n";

/// One golden line per (round, threads, shard_trials), in that order.
std::vector<std::string> GoldenLines() {
  ThreadPool pool(3);
  Rng rng(20260808);
  std::vector<std::string> lines;
  for (int round = 0; round < 25; ++round) {
    QueryGraph query = testing::MakeRoundRobinGraph(rng, round);
    for (int threads : {1, 4}) {
      for (int64_t shard_trials : {1, 7, 64, 512}) {
        McOptions mc;
        mc.trials = 1500;
        mc.seed = 1000 + static_cast<uint64_t>(round);
        mc.mode = McOptions::Mode::kTraversal;
        mc.num_threads = threads;
        mc.pool = threads > 1 ? &pool : nullptr;
        mc.shard_trials = shard_trials;
        Result<McEstimate> estimate = EstimateReliabilityMc(query, mc);
        EXPECT_TRUE(estimate.ok()) << estimate.status();
        std::string line = "round-" + std::to_string(round) + " " +
                           std::to_string(threads) + " " +
                           std::to_string(shard_trials) + " ";
        if (estimate.ok()) {
          line += std::to_string(estimate.value().scores.size()) + " " +
                  Hex(HashScoreBits(estimate.value().scores));
        } else {
          line += "error";
        }
        lines.push_back(line);
      }
    }
  }
  return lines;
}

TEST(McGoldenTest, TraversalMatchesTheFixture) {
  std::vector<std::string> expected;
  std::ifstream fixture(BIORANK_TESTDATA_DIR "/mc_golden.txt");
  for (std::string line; std::getline(fixture, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  const std::vector<std::string> actual = GoldenLines();
  if (actual != expected) {
    // Only for an intentional change to the traversal estimator: diff
    // this file, then copy it over tests/testdata/mc_golden.txt.
    std::ofstream out("mc_golden.actual.txt");
    out << kGoldenHeader;
    for (const std::string& line : actual) out << line << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size())
      << "see mc_golden.actual.txt";
  size_t mismatches = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "expected " << expected[i]
                    << "\n  actual   " << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "traversal MC estimates moved; actual "
                               "values in mc_golden.actual.txt";
}

}  // namespace
}  // namespace biorank
