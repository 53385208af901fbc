// Canonical keys for reduced per-answer subgraphs: isomorphic graphs
// must collide (that is the cache's sharing opportunity), distinct
// probabilistic graphs must not, the canonical rebuild must preserve
// reliability exactly, and the keys themselves must not drift (golden
// fixture).

#include "core/canonical.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "core/query_graph.h"
#include "core/reliability_exact.h"
#include "integrate/scenario_harness.h"
#include "testing/random_graphs.h"

namespace biorank {
namespace {

// s -(0.5)-> m -(0.8)-> t, plus a decoy branch that reduction removes.
QueryGraph MakeChain(double q1, double q2, bool decoy_first) {
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId decoy = kInvalidNode;
  if (decoy_first) decoy = b.Node(0.9, "decoy");
  NodeId m = b.Node(1.0, "m");
  NodeId t = b.Node(1.0, "t");
  if (!decoy_first) decoy = b.Node(0.9, "decoy");
  b.Edge(s, m, q1);
  b.Edge(m, t, q2);
  b.Edge(s, decoy, 0.3);  // Dead-end sink: reduction deletes it.
  return std::move(b).Build({t});
}

TEST(CanonicalTest, IsomorphicGraphsCollideAcrossInsertionOrders) {
  QueryGraph a = MakeChain(0.5, 0.8, /*decoy_first=*/false);
  QueryGraph b = MakeChain(0.5, 0.8, /*decoy_first=*/true);
  Result<CanonicalCandidate> ka = CanonicalizeCandidate(a, a.answers[0]);
  Result<CanonicalCandidate> kb = CanonicalizeCandidate(b, b.answers[0]);
  ASSERT_TRUE(ka.ok()) << ka.status();
  ASSERT_TRUE(kb.ok()) << kb.status();
  EXPECT_EQ(ka.value().key.repr, kb.value().key.repr);
  EXPECT_EQ(ka.value().key.hash, kb.value().key.hash);
}

TEST(CanonicalTest, SymmetricAnswersOfOneGraphShareAKey) {
  // Two answers with mirror-image evidence: one canonical key serves both.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId m1 = b.Node(0.9, "m1");
  NodeId m2 = b.Node(0.9, "m2");
  NodeId t1 = b.Node(0.8, "t1");
  NodeId t2 = b.Node(0.8, "t2");
  b.Edge(s, m1, 0.7);
  b.Edge(s, m2, 0.7);
  b.Edge(m1, t1, 0.6);
  b.Edge(m2, t2, 0.6);
  QueryGraph g = std::move(b).Build({t1, t2});
  Result<CanonicalCandidate> k1 = CanonicalizeCandidate(g, g.answers[0]);
  Result<CanonicalCandidate> k2 = CanonicalizeCandidate(g, g.answers[1]);
  ASSERT_TRUE(k1.ok()) << k1.status();
  ASSERT_TRUE(k2.ok()) << k2.status();
  EXPECT_EQ(k1.value().key.repr, k2.value().key.repr);
}

TEST(CanonicalTest, DifferentProbabilitiesSplitKeys) {
  QueryGraph a = MakeChain(0.5, 0.8, false);
  QueryGraph b = MakeChain(0.5, 0.81, false);
  Result<CanonicalCandidate> ka = CanonicalizeCandidate(a, a.answers[0]);
  Result<CanonicalCandidate> kb = CanonicalizeCandidate(b, b.answers[0]);
  ASSERT_TRUE(ka.ok() && kb.ok());
  EXPECT_NE(ka.value().key.repr, kb.value().key.repr);
}

TEST(CanonicalTest, SerialParallelAndBridgeTopologiesSplitKeys) {
  QueryGraph a = MakeFig4aSerialParallel();
  QueryGraph b = MakeFig4bWheatstoneBridge();
  Result<CanonicalCandidate> ka = CanonicalizeCandidate(a, a.answers[0]);
  Result<CanonicalCandidate> kb = CanonicalizeCandidate(b, b.answers[0]);
  ASSERT_TRUE(ka.ok() && kb.ok());
  EXPECT_NE(ka.value().key.repr, kb.value().key.repr);
}

TEST(CanonicalTest, CanonicalRebuildPreservesReliability) {
  for (const QueryGraph& g :
       {MakeFig4aSerialParallel(), MakeFig4bWheatstoneBridge()}) {
    Result<CanonicalCandidate> c = CanonicalizeCandidate(g, g.answers[0]);
    ASSERT_TRUE(c.ok()) << c.status();
    ASSERT_TRUE(c.value().canonical.Validate().ok());
    Result<double> original = ExactReliabilityBruteForce(g, g.answers[0]);
    Result<double> canonical = ExactReliabilityBruteForce(
        c.value().canonical, c.value().target);
    ASSERT_TRUE(original.ok() && canonical.ok());
    EXPECT_NEAR(original.value(), canonical.value(), 1e-12);
  }
}

TEST(CanonicalTest, ReductionStatsReportTheDecoyDeletion) {
  QueryGraph g = MakeChain(0.5, 0.8, false);
  Result<CanonicalCandidate> c = CanonicalizeCandidate(g, g.answers[0]);
  ASSERT_TRUE(c.ok());
  // The decoy sink is dropped by restriction/reduction; the chain
  // collapses to a single source -> target edge.
  EXPECT_EQ(c.value().canonical.graph.num_nodes(), 2);
  EXPECT_EQ(c.value().canonical.graph.num_edges(), 1);
}

TEST(CanonicalTest, UnreachableTargetYieldsIsolatedCanonicalAnswer) {
  QueryGraphBuilder b;
  NodeId m = b.Node(1.0, "m");
  NodeId t = b.Node(0.5, "t");
  b.Edge(t, m, 0.5);  // Only an edge *from* t: t unreachable from source.
  QueryGraph g = std::move(b).Build({t});
  Result<CanonicalCandidate> c = CanonicalizeCandidate(g, t);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_TRUE(c.value().canonical.Validate().ok());
  Result<double> r = ExactReliabilityBruteForce(c.value().canonical,
                                                c.value().target);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(CanonicalTest, NonAnswerTargetIsRejected) {
  QueryGraph g = MakeFig4aSerialParallel();
  Result<CanonicalCandidate> c = CanonicalizeCandidate(g, g.source);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  for (NodeId outside : {kInvalidNode, g.graph.node_capacity()}) {
    EXPECT_EQ(CanonicalizeCandidate(g, outside).status().code(),
              StatusCode::kInvalidArgument);
  }
}

/// One golden-fixture line: graph name, target, key hash, the ten
/// ReductionStats counters, and the provenance node and edge counts.
std::string GoldenLine(const std::string& graph, NodeId target,
                       const CanonicalCandidate& c) {
  const ReductionStats& s = c.reduction_stats;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s %d %016" PRIx64 " %d %d %d %d %d %d %d %d %d %d %zu %zu",
                graph.c_str(), target, c.key.hash, s.nodes_before,
                s.edges_before, s.nodes_after, s.edges_after,
                s.sink_deletions, s.orphan_deletions, s.serial_collapses,
                s.parallel_merges, s.self_loop_deletions, s.passes,
                c.provenance.nodes.size(), c.provenance.edges.size());
  return line;
}

constexpr char kGoldenHeader[] =
    "# Canonical-key golden fixture, asserted by core_canonical_test. One\n"
    "# line per (graph, answer): graph, target node, key.hash, the\n"
    "# ReductionStats counters (nodes and edges before, nodes and edges\n"
    "# after, sink, orphan, serial, parallel and self-loop counts, passes),\n"
    "# provenance node and edge counts.\n";

TEST(CanonicalGoldenTest, KeysStatsAndProvenanceMatchTheFixture) {
  // Warm-boot snapshots, the restored reliability cache and the MC
  // stream seeds (DeriveStreamSeed(seed, key.hash)) all depend on these
  // keys, so a change that re-keys candidates must fail here. Graphs: the
  // seeded restriction corpus (random graphs and delta-shaped copies) and
  // the 20 Table-1 protein query graphs.
  std::vector<std::pair<std::string, QueryGraph>> corpus;
  std::vector<QueryGraph> seeded = testing::MakeRestrictionCorpus();
  for (size_t i = 0; i < seeded.size(); ++i) {
    corpus.emplace_back("seeded-" + std::to_string(i), std::move(seeded[i]));
  }
  api::Server server;
  Result<std::vector<ScenarioQuery>> table1 =
      server.harness().BuildQueries(ScenarioId::kScenario1WellKnown);
  ASSERT_TRUE(table1.ok()) << table1.status();
  for (ScenarioQuery& query : table1.value()) {
    corpus.emplace_back(query.spec.gene_symbol, std::move(query.graph));
  }

  CanonicalizeOptions options;
  options.collect_provenance = true;
  std::vector<std::string> actual;
  for (const auto& [name, graph] : corpus) {
    const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
    for (NodeId target : graph.answers) {
      Result<CanonicalCandidate> c =
          CanonicalizeCandidate(graph, target, options, &csr);
      Result<CanonicalCandidate> reference =
          CanonicalizeCandidate(graph, target, options);
      ASSERT_TRUE(c.ok() && reference.ok()) << name << " target " << target;
      actual.push_back(GoldenLine(name, target, c.value()));
      EXPECT_EQ(GoldenLine(name, target, reference.value()), actual.back())
          << "the pointer restriction disagrees";
    }
  }

  std::vector<std::string> expected;
  std::ifstream fixture(BIORANK_TESTDATA_DIR "/canonical_golden.txt");
  for (std::string line; std::getline(fixture, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  if (actual != expected) {
    // Only for an intentional re-key: diff this file, then copy it over
    // tests/testdata/canonical_golden.txt.
    std::ofstream out("canonical_golden.actual.txt");
    out << kGoldenHeader;
    for (const std::string& line : actual) out << line << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size())
      << "see canonical_golden.actual.txt";
  size_t mismatches = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "expected " << expected[i] << "\n  actual   "
                    << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "candidates re-keyed; actual values in "
                               "canonical_golden.actual.txt";
}

}  // namespace
}  // namespace biorank
