// The factoring golden: value bits, recursion call counts,
// BoundReliability's bits and ClosedFormReliability's bits for a fixed
// corpus, so a rewrite of the factoring kernel or of the per-answer
// restriction provably leaves every result and every budget outcome where
// it was.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "core/closed_form.h"
#include "core/query_graph.h"
#include "core/reliability_bounds.h"
#include "core/reliability_exact.h"
#include "integrate/scenario_harness.h"
#include "testing/random_graphs.h"

namespace biorank {
namespace {

std::string Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, bits);
  return hex;
}

/// The golden's factoring budget, below the default 4M: 1,594 of the
/// 2,475 corpus answers factor within it, but 820 (most of the random
/// DAGs, some cyclic digraphs) need more than 100k calls, and running
/// those to the default budget would take over an hour per run.
constexpr int64_t kGoldenMaxCalls = 5000;

Result<double> Factor(const QueryGraph& graph, NodeId target,
                      int64_t max_calls) {
  FactoringOptions options;
  options.max_calls = max_calls;
  Result<double> r = ExactReliabilityFactoring(graph, target, options);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
        << r.status();
  }
  return r;
}

/// Factoring's golden fields for `target`: the value bits and the call
/// count c, pinned through the budget alone (max_calls = c succeeds,
/// c - 1 fails), or "budget -" past kGoldenMaxCalls. Tries the fixture's
/// count `hint` first and bisects only when it is wrong.
std::string FactoringFields(const QueryGraph& graph, NodeId target,
                            int64_t hint) {
  if (hint > 0) {
    Result<double> r = Factor(graph, target, hint);
    if (r.ok() && !Factor(graph, target, hint - 1).ok()) {
      return Bits(r.value()) + " " + std::to_string(hint);
    }
  }
  Result<double> r = Factor(graph, target, kGoldenMaxCalls);
  if (!r.ok()) return "budget -";
  int64_t fails = 0;  // Every run makes at least one call.
  int64_t fits = kGoldenMaxCalls;
  while (fits - fails > 1) {
    const int64_t mid = fails + (fits - fails) / 2;
    (Factor(graph, target, mid).ok() ? fits : fails) = mid;
  }
  return Bits(r.value()) + " " + std::to_string(fits);
}

/// The factoring golden corpus: the seeded restriction corpus, the 20
/// Table-1 protein query graphs, and 64 random layered DAGs in the serving
/// ledger's fresh-DAG shape (3 layers of 6 nodes, 12 answers).
std::vector<std::pair<std::string, QueryGraph>> FactoringCorpus() {
  std::vector<std::pair<std::string, QueryGraph>> corpus;
  std::vector<QueryGraph> seeded = testing::MakeRestrictionCorpus();
  for (size_t i = 0; i < seeded.size(); ++i) {
    corpus.emplace_back("seeded-" + std::to_string(i), std::move(seeded[i]));
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
  testing::RandomDagOptions dag;
  dag.layers = 3;
  dag.nodes_per_layer = 6;
  dag.answers = 12;
  dag.edge_density = 0.45;
  dag.skip_density = 0.15;
  for (uint64_t i = 0; i < 64; ++i) {
    Rng rng = Rng::ForStream(20260808, i);
    corpus.emplace_back("dag-" + std::to_string(i),
                        testing::MakeRandomLayeredDag(rng, dag));
  }
  return corpus;
}

constexpr char kGoldenHeader[] =
    "# Factoring golden fixture, asserted by core_factoring_golden_test.\n"
    "# One line per (graph, answer): graph, target node, factoring value\n"
    "# bits and call count c (max_calls = c succeeds, c - 1 fails), or\n"
    "# \"budget -\" when c exceeds the golden budget of 5000 calls, then\n"
    "# BoundReliability's lower and upper bits (or \"budget budget\"),\n"
    "# then ClosedFormReliability's bits (or \"irreducible\").\n";

TEST(FactoringGoldenTest, ValuesCallCountsAndBoundsMatchTheFixture) {
  // The recursion's pivot rule, reduction order and fold order fix these
  // bits, and its call count decides which answers fall through to Monte
  // Carlo under a budget, so a kernel rewrite must leave all of them
  // unchanged.
  std::vector<std::string> expected;
  std::ifstream fixture(BIORANK_TESTDATA_DIR "/factoring_golden.txt");
  for (std::string line; std::getline(fixture, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }

  std::vector<std::string> actual;
  for (const auto& [name, graph] : FactoringCorpus()) {
    for (NodeId target : graph.answers) {
      int64_t hint = 0;
      if (actual.size() < expected.size()) {
        std::sscanf(expected[actual.size()].c_str(), "%*s %*d %*s %" SCNd64,
                    &hint);
      }
      std::string line = name + " " + std::to_string(target) + " " +
                         FactoringFields(graph, target, hint);
      Result<ReliabilityBounds> bounds = BoundReliability(graph, target);
      if (bounds.ok()) {
        line += " " + Bits(bounds.value().lower) + " " +
                Bits(bounds.value().upper);
      } else {
        EXPECT_EQ(bounds.status().code(), StatusCode::kFailedPrecondition);
        line += " budget budget";
      }
      Result<double> closed = ClosedFormReliability(graph, target);
      if (closed.ok()) {
        line += " " + Bits(closed.value());
      } else {
        EXPECT_EQ(closed.status().code(), StatusCode::kFailedPrecondition);
        line += " irreducible";
      }
      actual.push_back(line);
    }
  }

  if (actual != expected) {
    // Only for an intentional change to the kernel's results: diff this
    // file, then copy it over tests/testdata/factoring_golden.txt.
    std::ofstream out("factoring_golden.actual.txt");
    out << kGoldenHeader;
    for (const std::string& line : actual) out << line << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size())
      << "see factoring_golden.actual.txt";
  size_t mismatches = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "expected " << expected[i] << "\n  actual   "
                    << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "factoring results moved; actual values in "
                               "factoring_golden.actual.txt";
}

}  // namespace
}  // namespace biorank
