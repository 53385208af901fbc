// The iterative-scoring golden: Propagate's and Diffuse's iteration
// counts, convergence flags and score bits for a fixed corpus, so a
// change of the graph substrate under Prop and Diff provably leaves every
// result where it was.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "core/diffusion.h"
#include "core/propagation.h"
#include "core/query_graph.h"
#include "integrate/scenario_harness.h"
#include "testing/random_graphs.h"
#include "util/rng.h"

namespace biorank {
namespace {

std::string Hex(uint64_t bits) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, bits);
  return hex;
}

uint64_t BitsOf(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// FNV-1a 64 over every score's bits, least significant byte first.
uint64_t HashScoreBits(const std::vector<double>& scores) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (double score : scores) {
    const uint64_t bits = BitsOf(score);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// The golden fields of one run: iterations, converged flag, score vector
/// length, the hash of all score bits, then each answer's score bits.
std::string IterativeFields(const QueryGraph& graph,
                            const Result<IterativeScores>& run) {
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return "error";
  const IterativeScores& r = run.value();
  std::string fields = std::to_string(r.iterations) + " " +
                       (r.converged ? "1" : "0") + " " +
                       std::to_string(r.scores.size()) + " " +
                       Hex(HashScoreBits(r.scores));
  for (NodeId target : graph.answers) {
    fields += " " + Hex(BitsOf(r.scores[static_cast<size_t>(target)]));
  }
  return fields;
}

/// The iterative golden corpus: the seeded restriction corpus, the 50
/// seed-1717 round-robin graphs and the 20 Table-1 protein query graphs.
std::vector<std::pair<std::string, QueryGraph>> IterativeCorpus() {
  std::vector<std::pair<std::string, QueryGraph>> corpus;
  std::vector<QueryGraph> seeded = testing::MakeRestrictionCorpus();
  for (size_t i = 0; i < seeded.size(); ++i) {
    corpus.emplace_back("seeded-" + std::to_string(i), std::move(seeded[i]));
  }
  Rng rng(1717);
  for (int round = 0; round < 50; ++round) {
    corpus.emplace_back("round-" + std::to_string(round),
                        testing::MakeRoundRobinGraph(rng, round));
  }
  api::Server server;
  Result<std::vector<ScenarioQuery>> table1 =
      server.harness().BuildQueries(ScenarioId::kScenario1WellKnown);
  EXPECT_TRUE(table1.ok()) << table1.status();
  if (table1.ok()) {
    for (ScenarioQuery& query : table1.value()) {
      corpus.emplace_back(query.spec.gene_symbol, std::move(query.graph));
    }
  }
  return corpus;
}

constexpr char kGoldenHeader[] =
    "# Iterative scoring golden fixture, asserted by\n"
    "# core_iterative_golden_test. One line per (graph, method), methods\n"
    "# prop, diff-analytic and diff-bisection at max_iterations = 100:\n"
    "# graph, method, iterations, converged (1/0), score vector length,\n"
    "# FNV-1a 64 of all score bits (each score least significant byte\n"
    "# first), then each answer's score bits in answer order.\n";

TEST(IterativeGoldenTest, PropagationAndDiffusionMatchTheFixture) {
  // Prop and Diff are deterministic Jacobi sweeps: their parent
  // enumeration order fixes every sum and product, so a change of the
  // graph substrate must leave all of these bits unchanged.
  std::vector<std::string> expected;
  std::ifstream fixture(BIORANK_TESTDATA_DIR "/iterative_golden.txt");
  for (std::string line; std::getline(fixture, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }

  PropagationOptions prop;
  prop.max_iterations = 100;
  DiffusionOptions analytic;
  analytic.max_iterations = 100;
  analytic.solver = DiffusionInnerSolver::kAnalytic;
  DiffusionOptions bisection = analytic;
  bisection.solver = DiffusionInnerSolver::kBisection;

  std::vector<std::string> actual;
  for (const auto& [name, graph] : IterativeCorpus()) {
    actual.push_back(name + " prop " +
                     IterativeFields(graph, Propagate(graph, prop)));
    actual.push_back(name + " diff-analytic " +
                     IterativeFields(graph, Diffuse(graph, analytic)));
    actual.push_back(name + " diff-bisection " +
                     IterativeFields(graph, Diffuse(graph, bisection)));
  }

  if (actual != expected) {
    // Only for an intentional change to Prop or Diff results: diff this
    // file, then copy it over tests/testdata/iterative_golden.txt.
    std::ofstream out("iterative_golden.actual.txt");
    out << kGoldenHeader;
    for (const std::string& line : actual) out << line << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size())
      << "see iterative_golden.actual.txt";
  size_t mismatches = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "expected " << expected[i] << "\n  actual   "
                    << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "iterative results moved; actual values in "
                               "iterative_golden.actual.txt";
}

}  // namespace
}  // namespace biorank
