// The factoring golden: value bits, recursion call counts,
// BoundReliability's bits and ClosedFormReliability's bits for a fixed
// corpus, so a rewrite of the factoring kernel or of the per-answer
// restriction provably leaves every result and every budget outcome where
// it was.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "core/canonical.h"
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

/// The serving layer's factoring budget (kExactMaxCalls in
/// serve/ranking_service.cc) and its edge cap (exact_max_edges): the
/// residues the heavy-residue golden pins are the ones the serve path
/// factors past kGoldenMaxCalls.
constexpr int64_t kServeMaxCalls = 200000;
constexpr int kServeMaxEdges = 24;

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
/// c - 1 fails), or "budget -" past `max_calls`. Tries the fixture's
/// count `hint` first and bisects only when it is wrong.
std::string FactoringFields(const QueryGraph& graph, NodeId target,
                            int64_t hint,
                            int64_t max_calls = kGoldenMaxCalls) {
  if (hint > 0) {
    Result<double> r = Factor(graph, target, hint);
    if (r.ok() && !Factor(graph, target, hint - 1).ok()) {
      return Bits(r.value()) + " " + std::to_string(hint);
    }
  }
  Result<double> r = Factor(graph, target, max_calls);
  if (!r.ok()) return "budget -";
  int64_t fails = 0;  // Every run makes at least one call.
  int64_t fits = max_calls;
  while (fits - fails > 1) {
    const int64_t mid = fails + (fits - fails) / 2;
    (Factor(graph, target, mid).ok() ? fits : fails) = mid;
  }
  return Bits(r.value()) + " " + std::to_string(fits);
}

/// The ledger-shape DAGs (testing::MakeLedgerDagCorpus), named "dag-<i>".
std::vector<std::pair<std::string, QueryGraph>> GoldenDags() {
  std::vector<std::pair<std::string, QueryGraph>> dags;
  std::vector<QueryGraph> corpus = testing::MakeLedgerDagCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    dags.emplace_back("dag-" + std::to_string(i), std::move(corpus[i]));
  }
  return dags;
}

/// Reads a golden fixture's non-comment lines.
std::vector<std::string> ReadFixture(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream fixture(path);
  for (std::string line; std::getline(fixture, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Compares `actual` with `expected` line by line; on a mismatch writes
/// `actual` under `header` to `actual_path` in the working directory.
void ExpectMatchesFixture(const std::vector<std::string>& actual,
                          const std::vector<std::string>& expected,
                          const char* header, const std::string& actual_path) {
  if (actual != expected) {
    // Only for an intentional change to the kernel's results: diff this
    // file, then copy it over the fixture in tests/testdata/.
    std::ofstream out(actual_path);
    out << header;
    for (const std::string& line : actual) out << line << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size()) << "see " << actual_path;
  size_t mismatches = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "expected " << expected[i] << "\n  actual   "
                    << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "factoring results moved; actual values in "
                            << actual_path;
}

/// The factoring golden corpus: the seeded restriction corpus, the 20
/// Table-1 protein query graphs, and GoldenDags.
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
  for (auto& dag : GoldenDags()) corpus.push_back(std::move(dag));
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
  const std::vector<std::string> expected =
      ReadFixture(BIORANK_TESTDATA_DIR "/factoring_golden.txt");

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

  ExpectMatchesFixture(actual, expected, kGoldenHeader,
                       "factoring_golden.actual.txt");
}

constexpr char kResidueHeader[] =
    "# Heavy serve-residue fixture, asserted by core_factoring_golden_test.\n"
    "# One line per answer of the golden's dag-* graphs whose canonical\n"
    "# residue has at most 24 edges and needs more than 5000 factoring\n"
    "# calls: graph, target node, residue edges, factoring value bits and\n"
    "# call count c at the serve budget of 200000 calls (max_calls = c\n"
    "# succeeds, c - 1 fails), or \"budget -\" past it.\n";

TEST(FactoringGoldenTest, HeavyServeResiduesMatchTheFixture) {
  // The serve path factors each answer's canonical residue (at most 24
  // edges) under a 200,000-call budget, far past the main golden's 5,000,
  // so the residues that cost the most there are pinned here: their value
  // bits and exact call counts, which decide whether an answer resolves
  // exactly or falls through to Monte Carlo.
  const std::vector<std::string> expected =
      ReadFixture(BIORANK_TESTDATA_DIR "/factoring_residue_golden.txt");
  std::vector<std::string> actual;
  for (const auto& [name, graph] : GoldenDags()) {
    const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
    for (NodeId target : graph.answers) {
      Result<CanonicalCandidate> candidate =
          CanonicalizeCandidate(graph, target, {}, &csr);
      ASSERT_TRUE(candidate.ok()) << candidate.status();
      const QueryGraph& residue = candidate.value().canonical;
      const int edges = residue.graph.num_edges();
      if (edges > kServeMaxEdges) continue;
      if (Factor(residue, candidate.value().target, kGoldenMaxCalls).ok()) {
        continue;
      }
      int64_t hint = 0;
      if (actual.size() < expected.size()) {
        std::sscanf(expected[actual.size()].c_str(),
                    "%*s %*d %*d %*s %" SCNd64, &hint);
      }
      actual.push_back(name + " " + std::to_string(target) + " " +
                       std::to_string(edges) + " " +
                       FactoringFields(residue, candidate.value().target, hint,
                                       kServeMaxCalls));
    }
  }
  ExpectMatchesFixture(actual, expected, kResidueHeader,
                       "factoring_residue_golden.actual.txt");
}

}  // namespace
}  // namespace biorank

namespace biorank {
namespace {

/// The value `bits` (16 hex digits) encode.
double FromBits(const std::string& bits) {
  const uint64_t raw = std::stoull(bits, nullptr, 16);
  double value;
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}

/// The DAG sweep on `graph`'s query snapshot.
Result<double> Sweep(const QueryGraph& graph, NodeId target) {
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(graph);
  if (!snapshot.ok()) return snapshot.status();
  return ExactReliabilityDagSweep(snapshot.value(), target);
}

TEST(FactoringGoldenTest, DagSweepMatchesFactoringOnEveryGoldenDagAnswer) {
  // The serve path sweeps canonical residues, so this does too: every
  // golden answer with an acyclic residue that factoring resolved within
  // the golden's budget, and every heavy serve residue, sweeps to the
  // pinned factoring value. Cyclic residues decline.
  std::map<std::string, QueryGraph> graphs;
  for (auto& [name, graph] : FactoringCorpus()) {
    graphs.emplace(name, std::move(graph));
  }
  double worst = 0.0;
  int compared = 0, declined = 0;
  for (const std::string& line :
       ReadFixture(BIORANK_TESTDATA_DIR "/factoring_golden.txt")) {
    std::istringstream fields(line);
    std::string name, bits;
    NodeId target = kInvalidNode;
    fields >> name >> target >> bits;
    const QueryGraph& graph = graphs.at(name);
    const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
    Result<CanonicalCandidate> candidate =
        CanonicalizeCandidate(graph, target, {}, &csr);
    ASSERT_TRUE(candidate.ok()) << candidate.status();
    const QueryGraph& residue = candidate.value().canonical;
    Result<double> swept = Sweep(residue, candidate.value().target);
    if (!testing::IsAcyclic(residue)) {
      EXPECT_EQ(swept.status().code(), StatusCode::kFailedPrecondition);
      ++declined;
      continue;
    }
    if (bits == "budget") continue;
    ASSERT_TRUE(swept.ok()) << line << ": " << swept.status();
    const double error = std::abs(swept.value() - FromBits(bits));
    EXPECT_LE(error, 1e-12) << line;
    worst = std::max(worst, error);
    ++compared;
  }
  int residues = 0;
  for (const std::string& line :
       ReadFixture(BIORANK_TESTDATA_DIR "/factoring_residue_golden.txt")) {
    std::istringstream fields(line);
    std::string name, bits;
    NodeId target = kInvalidNode;
    int edges = 0;
    fields >> name >> target >> edges >> bits;
    const QueryGraph& graph = graphs.at(name);
    const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
    Result<CanonicalCandidate> candidate =
        CanonicalizeCandidate(graph, target, {}, &csr);
    ASSERT_TRUE(candidate.ok()) << candidate.status();
    Result<double> swept =
        Sweep(candidate.value().canonical, candidate.value().target);
    ASSERT_TRUE(swept.ok()) << line << ": " << swept.status();
    const double error = std::abs(swept.value() - FromBits(bits));
    EXPECT_LE(error, 1e-12) << line;
    worst = std::max(worst, error);
    ++residues;
  }
  EXPECT_GE(compared, 1500);
  EXPECT_GE(declined, 50);
  EXPECT_EQ(residues, 24);
  std::printf("compared %d answers and %d residues (largest error %.3g), "
              "%d cyclic answers declined\n",
              compared, residues, worst, declined);
}

}  // namespace
}  // namespace biorank
