// Canonical keys for reduced per-answer subgraphs: isomorphic graphs
// must collide (that is the cache's sharing opportunity), distinct
// probabilistic graphs must not, the canonical rebuild must preserve
// reliability exactly, and the keys themselves must not drift (golden
// fixture).

#include "core/canonical.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "core/explanation.h"
#include "core/graph_algo.h"
#include "core/query_graph.h"
#include "core/reliability_bounds.h"
#include "core/reliability_exact.h"
#include "integrate/scenario_harness.h"
#include "testing/random_graphs.h"
#include "util/rng.h"

namespace biorank {
namespace {

/// CanonicalizeCandidate over a snapshot built for this one call.
Result<CanonicalCandidate> Canonicalize(
    const QueryGraph& graph, NodeId target,
    const CanonicalizeOptions& options = {}) {
  const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
  return CanonicalizeCandidate(graph, target, options, &csr);
}

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

/// The canonical graph as bytes: node p bits in id order, then each edge
/// (from, to, q bits) in id order, then the source and target.
std::string CanonicalBytes(const CanonicalCandidate& c) {
  const ProbabilisticEntityGraph& graph = c.canonical.graph;
  std::string bytes;
  auto put = [&bytes](uint64_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_double = [&put](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    put(bits);
  };
  for (NodeId id : graph.AliveNodes()) put_double(graph.node(id).p);
  for (EdgeId e : graph.AliveEdges()) {
    const GraphEdge& edge = graph.edge(e);
    put(static_cast<uint64_t>(edge.from));
    put(static_cast<uint64_t>(edge.to));
    put_double(edge.q);
  }
  put(static_cast<uint64_t>(c.canonical.source));
  put(static_cast<uint64_t>(c.target));
  return bytes;
}

TEST(CanonicalTest, IsomorphicGraphsCollideAcrossInsertionOrders) {
  QueryGraph a = MakeChain(0.5, 0.8, /*decoy_first=*/false);
  QueryGraph b = MakeChain(0.5, 0.8, /*decoy_first=*/true);
  Result<CanonicalCandidate> ka = Canonicalize(a, a.answers[0]);
  Result<CanonicalCandidate> kb = Canonicalize(b, b.answers[0]);
  ASSERT_TRUE(ka.ok()) << ka.status();
  ASSERT_TRUE(kb.ok()) << kb.status();
  EXPECT_EQ(ka.value().key.repr, kb.value().key.repr);
  EXPECT_EQ(ka.value().key.hash, kb.value().key.hash);

  // Seeded random graphs under a random node relabeling and edge
  // insertion order: every answer keeps its key and its canonical graph,
  // byte for byte. Serial collapses and parallel merges stay off: they
  // fold probabilities in adjacency order, so a relabeled copy may reduce
  // to a residue one ulp away (a cache miss, never a wrong value).
  CanonicalizeOptions exact_residue;
  exact_residue.reduction.collapse_serial = false;
  exact_residue.reduction.merge_parallel = false;
  Rng rng(8086);
  int compared = 0;
  for (const QueryGraph& graph : testing::MakeRestrictionCorpus()) {
    std::vector<NodeId> relabel;
    QueryGraph copy = testing::RelabeledCopy(graph, rng, relabel);
    for (NodeId answer : graph.answers) {
      Result<CanonicalCandidate> original =
          Canonicalize(graph, answer, exact_residue);
      Result<CanonicalCandidate> relabeled = Canonicalize(
          copy, relabel[static_cast<size_t>(answer)], exact_residue);
      ASSERT_TRUE(original.ok()) << original.status();
      ASSERT_TRUE(relabeled.ok()) << relabeled.status();
      EXPECT_EQ(original.value().key.repr, relabeled.value().key.repr);
      EXPECT_EQ(CanonicalBytes(original.value()),
                CanonicalBytes(relabeled.value()));
      ++compared;
    }
  }
  EXPECT_GT(compared, 100);
}

TEST(CanonicalTest, LeafCapKeepsASymmetricResidueDeterministic) {
  // source -> 4 nodes -> complete bipartite 4x4 -> target, every node and
  // edge alike: nothing reduces, and the labeling search has 4! * 4! =
  // 576 leaves, past the cap of 64. The graph is fully symmetric, so
  // every leaf serializes alike and the capped key is still canonical.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  std::vector<NodeId> left;
  std::vector<NodeId> right;
  for (int i = 0; i < 4; ++i) left.push_back(b.Node(0.9, ""));
  for (int i = 0; i < 4; ++i) right.push_back(b.Node(0.9, ""));
  NodeId t = b.Node(0.9, "t");
  for (NodeId l : left) b.Edge(s, l, 0.7);
  for (NodeId l : left) {
    for (NodeId r : right) b.Edge(l, r, 0.6);
  }
  for (NodeId r : right) b.Edge(r, t, 0.7);
  QueryGraph graph = std::move(b).Build({t});

  Result<CanonicalCandidate> first = Canonicalize(graph, t);
  Result<CanonicalCandidate> second = Canonicalize(graph, t);
  Rng rng(6502);
  std::vector<NodeId> relabel;
  QueryGraph copy = testing::RelabeledCopy(graph, rng, relabel);
  Result<CanonicalCandidate> reordered =
      Canonicalize(copy, relabel[static_cast<size_t>(t)]);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(reordered.ok()) << reordered.status();
  EXPECT_EQ(first.value().canonical.graph.num_edges(), 24);
  EXPECT_EQ(first.value().key.repr, second.value().key.repr);
  EXPECT_EQ(first.value().key.repr, reordered.value().key.repr);
  EXPECT_EQ(CanonicalBytes(first.value()), CanonicalBytes(reordered.value()));

  Result<double> original = ExactReliabilityFactoring(graph, t);
  Result<double> canonical = ExactReliabilityFactoring(
      first.value().canonical, first.value().target);
  ASSERT_TRUE(original.ok()) << original.status();
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  EXPECT_NEAR(original.value(), canonical.value(), 1e-12);
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
  Result<CanonicalCandidate> k1 = Canonicalize(g, g.answers[0]);
  Result<CanonicalCandidate> k2 = Canonicalize(g, g.answers[1]);
  ASSERT_TRUE(k1.ok()) << k1.status();
  ASSERT_TRUE(k2.ok()) << k2.status();
  EXPECT_EQ(k1.value().key.repr, k2.value().key.repr);
}

TEST(CanonicalTest, DifferentProbabilitiesSplitKeys) {
  QueryGraph a = MakeChain(0.5, 0.8, false);
  QueryGraph b = MakeChain(0.5, 0.81, false);
  Result<CanonicalCandidate> ka = Canonicalize(a, a.answers[0]);
  Result<CanonicalCandidate> kb = Canonicalize(b, b.answers[0]);
  ASSERT_TRUE(ka.ok() && kb.ok());
  EXPECT_NE(ka.value().key.repr, kb.value().key.repr);
}

TEST(CanonicalTest, SerialParallelAndBridgeTopologiesSplitKeys) {
  QueryGraph a = MakeFig4aSerialParallel();
  QueryGraph b = MakeFig4bWheatstoneBridge();
  Result<CanonicalCandidate> ka = Canonicalize(a, a.answers[0]);
  Result<CanonicalCandidate> kb = Canonicalize(b, b.answers[0]);
  ASSERT_TRUE(ka.ok() && kb.ok());
  EXPECT_NE(ka.value().key.repr, kb.value().key.repr);
}

TEST(CanonicalTest, CanonicalRebuildPreservesReliability) {
  for (const QueryGraph& g :
       {MakeFig4aSerialParallel(), MakeFig4bWheatstoneBridge()}) {
    Result<CanonicalCandidate> c = Canonicalize(g, g.answers[0]);
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
  Result<CanonicalCandidate> c = Canonicalize(g, g.answers[0]);
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
  Result<CanonicalCandidate> c = Canonicalize(g, t);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_TRUE(c.value().canonical.Validate().ok());
  Result<double> r = ExactReliabilityBruteForce(c.value().canonical,
                                                c.value().target);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(CanonicalTest, NonAnswerTargetIsRejected) {
  QueryGraph g = MakeFig4aSerialParallel();
  Result<CanonicalCandidate> c = Canonicalize(g, g.source);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  for (NodeId outside : {kInvalidNode, g.graph.node_capacity()}) {
    EXPECT_EQ(Canonicalize(g, outside).status().code(),
              StatusCode::kInvalidArgument);
  }
}

/// FNV-1a 64 over the provenance node ids, then its edge ids, each as
/// decimal text ("n1 n2 ...;e1 e2 ..."): pins the exact footprint lists.
uint64_t ProvenanceFingerprint(const CandidateProvenance& provenance) {
  std::string text;
  for (NodeId id : provenance.nodes) text += std::to_string(id) + " ";
  text += ";";
  for (EdgeId id : provenance.edges) text += std::to_string(id) + " ";
  return Fnv1a64(text);
}

/// One golden-fixture line: graph name, target, key hash, the ten
/// ReductionStats counters, the provenance node and edge counts and the
/// provenance fingerprint.
std::string GoldenLine(const std::string& graph, NodeId target,
                       const CanonicalCandidate& c) {
  const ReductionStats& s = c.reduction_stats;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s %d %016" PRIx64
                " %d %d %d %d %d %d %d %d %d %d %zu %zu %016" PRIx64,
                graph.c_str(), target, c.key.hash, s.nodes_before,
                s.edges_before, s.nodes_after, s.edges_after,
                s.sink_deletions, s.orphan_deletions, s.serial_collapses,
                s.parallel_merges, s.self_loop_deletions, s.passes,
                c.provenance.nodes.size(), c.provenance.edges.size(),
                ProvenanceFingerprint(c.provenance));
  return line;
}

constexpr char kGoldenHeader[] =
    "# Canonical-key golden fixture, asserted by core_canonical_test. One\n"
    "# line per (graph, answer): graph, target node, key.hash, the\n"
    "# ReductionStats counters (nodes and edges before, nodes and edges\n"
    "# after, sink, orphan, serial, parallel and self-loop counts, passes),\n"
    "# provenance node and edge counts, and the provenance fingerprint\n"
    "# (FNV-1a 64 over the node ids, then the edge ids, as decimal text).\n";

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
      ASSERT_TRUE(c.ok()) << name << " target " << target;
      actual.push_back(GoldenLine(name, target, c.value()));
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

/// "" if restricting `graph` to its single answer changes nothing,
/// otherwise the first difference.
std::string RestrictionDifference(const QueryGraph& graph) {
  const QueryGraph restricted = RestrictToTarget(
      BuildCsrSnapshot(graph.graph), graph.source, graph.answers[0]);
  return testing::GraphDifference(graph, restricted);
}

TEST(CanonicalTest, CanonicalGraphsAndTheirPathUnionsAreAlreadyRestricted) {
  // The serve path factors and bounds canonical graphs, and bounds factor
  // the union of Yen's strongest evidence paths; both are already their
  // target's evidence subgraph, so restricting them again must be the
  // identity. Graphs: every answer of the canonical, factoring and
  // iterative golden corpora (the restriction corpus, the Table-1 protein
  // queries, the ledger-shape DAGs and the seed-1717 round-robin graphs).
  // This holds for canonical inputs only: restriction orders edges by
  // source node, which canonical graphs do and a raw graph's union, kept
  // in edge id order, often does not.
  std::vector<QueryGraph> corpus = testing::MakeRestrictionCorpus();
  api::Server server;
  Result<std::vector<ScenarioQuery>> table1 =
      server.harness().BuildQueries(ScenarioId::kScenario1WellKnown);
  ASSERT_TRUE(table1.ok()) << table1.status();
  for (ScenarioQuery& query : table1.value()) {
    corpus.push_back(std::move(query.graph));
  }
  for (QueryGraph& dag : testing::MakeLedgerDagCorpus()) {
    corpus.push_back(std::move(dag));
  }
  Rng rng(1717);
  for (int round = 0; round < 50; ++round) {
    corpus.push_back(testing::MakeRoundRobinGraph(rng, round));
  }

  ExplanationOptions explain;  // BoundReliability's path count.
  explain.max_paths = ReliabilityBoundsOptions{}.max_paths;
  int canonical_graphs = 0;
  int unions = 0;
  for (const QueryGraph& graph : corpus) {
    const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
    for (NodeId target : graph.answers) {
      Result<CanonicalCandidate> c =
          CanonicalizeCandidate(graph, target, {}, &csr);
      ASSERT_TRUE(c.ok()) << c.status();
      const QueryGraph& canonical = c.value().canonical;
      EXPECT_EQ(RestrictionDifference(canonical), "");
      ++canonical_graphs;
      Result<std::vector<EvidencePath>> paths =
          ExplainAnswer(canonical, c.value().target, explain);
      ASSERT_TRUE(paths.ok()) << paths.status();
      if (paths.value().empty()) continue;  // Bounds factor nothing.
      EXPECT_EQ(RestrictionDifference(EvidencePathUnion(
                    canonical, c.value().target, paths.value())),
                "");
      ++unions;
    }
  }
  EXPECT_EQ(canonical_graphs, 2904);
  EXPECT_EQ(unions, 2787);
}

}  // namespace
}  // namespace biorank
