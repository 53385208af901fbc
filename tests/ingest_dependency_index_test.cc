// Dependency-index semantics: provenance registration, the
// affected-answer cover for every delta op (including the add-edge
// descendant rule, where the affected answer's subgraph contains neither
// endpoint of the new edge), exclusive-key extraction for cache
// invalidation, and — on a seeded delta stream over the Table-1 graphs —
// a golden fixture of the index's answers and a from-scratch check that
// the dirty cover is sound.

#include "ingest/dependency_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "core/canonical.h"
#include "core/query_graph.h"
#include "integrate/scenario_harness.h"
#include "util/rng.h"

namespace biorank::ingest {
namespace {

/// CanonicalizeCandidate over a snapshot built for this one call.
Result<CanonicalCandidate> Canonicalize(
    const QueryGraph& graph, NodeId target,
    const CanonicalizeOptions& options = {}) {
  const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
  return CanonicalizeCandidate(graph, target, options, &csr);
}

/// Two answers with disjoint evidence paths plus one stranded node:
///
///   s -(e_sa)-> a -(e_at1)-> t1        (answer 0)
///   s -(e_st2)-> t2                    (answer 1)
///   x -(e_xt1)-> t1    with x NOT reachable from s
///
/// x and e_xt1 are in nobody's restricted subgraph until an update
/// connects s to x.
struct Fixture {
  QueryGraph graph;
  NodeId a, t1, t2, x;
  EdgeId e_sa, e_at1, e_st2, e_xt1;
  CanonicalCandidate c0, c1;
  DependencyIndex index;
};

Fixture Make() {
  Fixture f;
  QueryGraphBuilder b;
  NodeId s = b.Source();
  f.a = b.Node(0.9, "ann", "AmiGO");
  f.t1 = b.Node(1.0, "go1", "GO");
  f.t2 = b.Node(1.0, "go2", "GO");
  f.x = b.Node(0.8, "stranded", "PfamDomain");
  f.e_sa = b.Edge(s, f.a, 0.5);
  f.e_at1 = b.Edge(f.a, f.t1, 0.8);
  f.e_st2 = b.Edge(s, f.t2, 0.7);
  f.e_xt1 = b.Edge(f.x, f.t1, 0.6);
  f.graph = std::move(b).Build({f.t1, f.t2});

  CanonicalizeOptions options;
  options.collect_provenance = true;
  f.c0 = Canonicalize(f.graph, f.t1, options).value();
  f.c1 = Canonicalize(f.graph, f.t2, options).value();
  f.index.Register(0, f.c0.key, f.c0.provenance, f.graph);
  f.index.Register(1, f.c1.key, f.c1.provenance, f.graph);
  return f;
}

TEST(DependencyIndexTest, ProvenanceCoversExactlyTheRestrictedSubgraph) {
  Fixture f = Make();
  // Answer 0's evidence subgraph is {s, a, t1} / {e_sa, e_at1}: the
  // stranded x and its edge are excluded, as is t2's path.
  EXPECT_EQ(f.c0.provenance.nodes,
            (std::vector<NodeId>{f.graph.source, f.a, f.t1}));
  EXPECT_EQ(f.c0.provenance.edges, (std::vector<EdgeId>{f.e_sa, f.e_at1}));
  EXPECT_EQ(f.c1.provenance.nodes,
            (std::vector<NodeId>{f.graph.source, f.t2}));
  EXPECT_EQ(f.c1.provenance.edges, (std::vector<EdgeId>{f.e_st2}));
}

TEST(DependencyIndexTest, ProvenanceIsOffByDefault) {
  Fixture f = Make();
  CanonicalCandidate plain = Canonicalize(f.graph, f.t1).value();
  EXPECT_TRUE(plain.provenance.nodes.empty());
  EXPECT_TRUE(plain.provenance.edges.empty());
  EXPECT_EQ(plain.key.repr, f.c0.key.repr)
      << "provenance collection must not change the canonical key";
}

TEST(DependencyIndexTest, EdgeOpsAffectExactlyTheContainingAnswers) {
  Fixture f = Make();
  AppliedDelta applied;
  EvidenceDelta reweight;
  reweight.reweight_edges.push_back({f.e_at1, 0.9});
  EXPECT_EQ(f.index.AffectedAnswers(reweight, applied, f.graph),
            (std::vector<int>{0}));

  EvidenceDelta remove;
  remove.remove_edges.push_back({f.e_st2});
  EXPECT_EQ(f.index.AffectedAnswers(remove, applied, f.graph),
            (std::vector<int>{1}));

  EvidenceDelta untracked;
  untracked.reweight_edges.push_back({f.e_xt1, 0.1});
  EXPECT_TRUE(f.index.AffectedAnswers(untracked, applied, f.graph).empty())
      << "an edge in no answer's subgraph dirties nothing";
}

TEST(DependencyIndexTest, NodeAndSourcePriorOpsHitFootprints) {
  Fixture f = Make();
  AppliedDelta applied;
  EvidenceDelta revise;
  revise.revise_node_probs.push_back({f.a, 0.5});
  EXPECT_EQ(f.index.AffectedAnswers(revise, applied, f.graph),
            (std::vector<int>{0}));

  EvidenceDelta prior;
  prior.revise_source_priors.push_back({"GO", 0.9});
  EXPECT_EQ(f.index.AffectedAnswers(prior, applied, f.graph),
            (std::vector<int>{0, 1}));

  EvidenceDelta amigo;
  amigo.revise_source_priors.push_back({"AmiGO", 0.9});
  EXPECT_EQ(f.index.AffectedAnswers(amigo, applied, f.graph),
            (std::vector<int>{0}));

  EvidenceDelta stranded;
  stranded.revise_source_priors.push_back({"PfamDomain", 0.9});
  EXPECT_TRUE(f.index.AffectedAnswers(stranded, applied, f.graph).empty());
}

TEST(DependencyIndexTest, AddedEdgeDirtiesDescendantAnswersOnly) {
  Fixture f = Make();
  // Connect the stranded x to the source: t1 is newly supported through
  // x -> t1 even though neither endpoint of the new edge was in t1's
  // subgraph (x was unreachable; s is in *every* subgraph, but the rule
  // must not use endpoint postings or it would dirty t2 as well).
  EvidenceDelta delta;
  delta.add_edges.push_back({f.graph.source, f.x, 0.4});
  AppliedDelta applied = ApplyDeltaToGraph(delta, f.graph).value();
  EXPECT_EQ(f.index.AffectedAnswers(delta, applied, f.graph),
            (std::vector<int>{0}));
}

TEST(DependencyIndexTest, ExclusiveKeysSpareSharedOnes) {
  // Two isomorphic answers share one canonical key; a third differs.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId t1 = b.Node(1.0, "", "GO");
  NodeId t2 = b.Node(1.0, "", "GO");
  NodeId t3 = b.Node(1.0, "", "GO");
  b.Edge(s, t1, 0.5);
  b.Edge(s, t2, 0.5);
  b.Edge(s, t3, 0.9);
  QueryGraph g = std::move(b).Build({t1, t2, t3});
  CanonicalizeOptions options;
  options.collect_provenance = true;
  DependencyIndex index;
  std::vector<CanonicalCandidate> c;
  for (size_t i = 0; i < g.answers.size(); ++i) {
    c.push_back(Canonicalize(g, g.answers[i], options).value());
    index.Register(static_cast<int>(i), c.back().key, c.back().provenance,
                   g);
  }
  ASSERT_EQ(c[0].key.repr, c[1].key.repr);
  ASSERT_NE(c[0].key.repr, c[2].key.repr);

  // Dirtying only answer 0 must spare the shared key (answer 1 still
  // uses it).
  EXPECT_TRUE(index.ExclusiveKeys({0}).empty());
  // Dirtying both sharers orphans it.
  std::vector<CanonicalKey> both = index.ExclusiveKeys({0, 1});
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].repr, c[0].key.repr);
  // Dirtying everything orphans both distinct keys, deduplicated.
  EXPECT_EQ(index.ExclusiveKeys({0, 1, 2}).size(), 2u);
}

TEST(DependencyIndexTest, ReRegistrationReplacesTheEntry) {
  Fixture f = Make();
  AppliedDelta applied;
  EvidenceDelta revise;
  revise.revise_node_probs.push_back({f.a, 0.5});
  ASSERT_EQ(f.index.AffectedAnswers(revise, applied, f.graph),
            (std::vector<int>{0}));
  // Answer 0 re-registered with answer 1's key and footprint: its old
  // footprint and key are gone, and the key is now shared.
  f.index.Register(0, f.c1.key, f.c1.provenance, f.graph);
  EXPECT_TRUE(f.index.AffectedAnswers(revise, applied, f.graph).empty());
  EXPECT_FALSE(f.index.HasKey(f.c0.key));
  EXPECT_TRUE(f.index.ExclusiveKeys({0}).empty());
  // Re-registration restores them.
  f.index.Register(0, f.c0.key, f.c0.provenance, f.graph);
  EXPECT_EQ(f.index.AffectedAnswers(revise, applied, f.graph),
            (std::vector<int>{0}));
  EXPECT_TRUE(f.index.HasKey(f.c0.key));
}

// ---------------------------------------------------------------------
// The seeded revision stream: 25 deltas against each of the 20 Table-1
// query graphs, replayed the way the update applier drives the index
// (apply, AffectedAnswers, ExclusiveKeys, re-register the dirty answers,
// HasKey). Every answer is also re-canonicalized from scratch after each
// delta, so the replay knows which answers really changed.

/// Canonicalizes every answer of `graph`, with provenance, over one
/// snapshot.
std::vector<CanonicalCandidate> CanonicalizeAll(const QueryGraph& graph) {
  CanonicalizeOptions options;
  options.collect_provenance = true;
  const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
  std::vector<CanonicalCandidate> all;
  for (NodeId target : graph.answers) {
    Result<CanonicalCandidate> c =
        CanonicalizeCandidate(graph, target, options, &csr);
    EXPECT_TRUE(c.ok()) << c.status();
    all.push_back(c.ok() ? std::move(c.value()) : CanonicalCandidate{});
  }
  return all;
}

/// A random element of `items` (which must be non-empty).
template <typename T>
T Pick(Rng& rng, const std::vector<T>& items) {
  return items[static_cast<size_t>(rng.NextBounded(items.size()))];
}

/// The op kinds, in the order delta `step` leads with them (step % 5).
enum OpKind { kAdd, kRemove, kReweight, kReviseNode, kRevisePrior };
constexpr int kOpKinds = 5;

/// Builds one valid delta: it leads with op kind `step % 5` and carries a
/// second, random kind half the time, so the stream covers every kind
/// alone and in pairs. Edges and nodes come from a random answer's
/// footprint three times in four (so most ops hit some answer) and from
/// the whole graph otherwise. Every tenth delta adds a node wired from a
/// footprint node (or the source) into the graph; the other add deltas
/// add an edge between existing nodes.
EvidenceDelta MakeSeededDelta(const QueryGraph& graph,
                              const std::vector<CanonicalCandidate>& current,
                              Rng& rng, int step) {
  const ProbabilisticEntityGraph& g = graph.graph;
  auto footprint_nodes = [&]() {
    std::vector<NodeId> nodes;
    for (NodeId id : Pick(rng, current).provenance.nodes) {
      if (id != graph.source) nodes.push_back(id);
    }
    return nodes;
  };
  auto pick_node = [&]() {
    std::vector<NodeId> nodes;
    if (rng.NextBounded(4) != 0) nodes = footprint_nodes();
    if (nodes.empty()) {
      for (NodeId id : g.AliveNodes()) {
        if (id != graph.source) nodes.push_back(id);
      }
    }
    return Pick(rng, nodes);
  };
  std::vector<EdgeId> touched;  // Edges removed or reweighted so far.
  auto pick_edge = [&]() {
    std::vector<EdgeId> edges;
    if (rng.NextBounded(4) != 0) edges = Pick(rng, current).provenance.edges;
    if (edges.empty()) edges = g.AliveEdges();
    EdgeId e = Pick(rng, edges);
    if (std::find(touched.begin(), touched.end(), e) != touched.end()) {
      return EdgeId{-1};
    }
    touched.push_back(e);
    return e;
  };
  std::vector<std::string> sets;
  for (NodeId id : g.AliveNodes()) {
    const std::string& set = g.node(id).entity_set;
    if (id != graph.source && !set.empty() &&
        std::find(sets.begin(), sets.end(), set) == sets.end()) {
      sets.push_back(set);
    }
  }

  EvidenceDelta delta;
  auto add_op = [&](int kind) {
    switch (kind) {
      case kAdd: {
        std::vector<NodeId> from = footprint_nodes();
        if (from.empty()) from.push_back(pick_node());
        NodeId u = rng.NextBounded(3) == 0 ? graph.source : Pick(rng, from);
        NodeId v = pick_node();
        if (step % 10 == 0) {
          delta.add_nodes.push_back(
              {rng.NextUniform(0.5, 1.0), "fresh", Pick(rng, sets)});
          NodeId fresh =
              EvidenceDelta::NewNodeRef(
                  static_cast<int>(delta.add_nodes.size()) - 1);
          delta.add_edges.push_back({u, fresh, rng.NextUniform(0.3, 1.0)});
          delta.add_edges.push_back({fresh, v, rng.NextUniform(0.3, 1.0)});
        } else if (u != v) {
          delta.add_edges.push_back({u, v, rng.NextUniform(0.3, 1.0)});
        }
        break;
      }
      case kRemove: {
        EdgeId e = pick_edge();
        if (e >= 0) delta.remove_edges.push_back({e});
        break;
      }
      case kReweight:
        for (int i = 0, n = 1 + static_cast<int>(rng.NextBounded(2)); i < n;
             ++i) {
          EdgeId e = pick_edge();
          if (e >= 0) {
            delta.reweight_edges.push_back({e, rng.NextUniform(0.1, 1.0)});
          }
        }
        break;
      case kReviseNode:
        for (int i = 0, n = 1 + static_cast<int>(rng.NextBounded(2)); i < n;
             ++i) {
          delta.revise_node_probs.push_back(
              {pick_node(), rng.NextUniform(0.2, 1.0)});
        }
        break;
      case kRevisePrior:
        delta.revise_source_priors.push_back(
            {Pick(rng, sets), rng.NextUniform(0.5, 1.5)});
        break;
    }
  };
  add_op(step % kOpKinds);
  if (rng.NextBounded(2) == 0) {
    add_op(static_cast<int>(rng.NextBounded(kOpKinds)));
  }
  return delta;
}

/// One replayed delta.
struct ReplayedDelta {
  int lead_kind = 0;
  std::string golden_line;
  std::vector<int> affected;  ///< AffectedAnswers, as the index says.
  std::vector<int> changed;   ///< Answers whose repr or provenance changed.
};

bool SameCanonical(const CanonicalCandidate& a, const CanonicalCandidate& b) {
  return a.key.repr == b.key.repr && a.provenance.nodes == b.provenance.nodes &&
         a.provenance.edges == b.provenance.edges;
}

std::string JoinInts(const std::vector<int>& values) {
  if (values.empty()) return "-";
  std::string text;
  for (int v : values) text += (text.empty() ? "" : ",") + std::to_string(v);
  return text;
}

std::vector<ReplayedDelta> ReplaySeededDeltas() {
  constexpr int kDeltasPerGraph = 25;
  api::Server server;
  Result<std::vector<ScenarioQuery>> table1 =
      server.harness().BuildQueries(ScenarioId::kScenario1WellKnown);
  EXPECT_TRUE(table1.ok()) << table1.status();
  if (!table1.ok()) return {};
  std::vector<ReplayedDelta> replayed;
  for (size_t q = 0; q < table1.value().size(); ++q) {
    ScenarioQuery& query = table1.value()[q];
    QueryGraph& graph = query.graph;
    std::vector<CanonicalCandidate> current = CanonicalizeAll(graph);
    DependencyIndex index;
    for (size_t i = 0; i < current.size(); ++i) {
      index.Register(static_cast<int>(i), current[i].key,
                     current[i].provenance, graph);
    }
    Rng rng(0xDE9 + q);
    for (int step = 0; step < kDeltasPerGraph; ++step) {
      EvidenceDelta delta = MakeSeededDelta(graph, current, rng, step);
      Result<AppliedDelta> applied = ApplyDeltaToGraph(delta, graph);
      EXPECT_TRUE(applied.ok()) << applied.status();
      if (!applied.ok()) return {};

      ReplayedDelta r;
      r.lead_kind = step % kOpKinds;
      r.affected = index.AffectedAnswers(delta, applied.value(), graph);
      std::vector<CanonicalKey> exclusive = index.ExclusiveKeys(r.affected);
      std::vector<CanonicalCandidate> fresh = CanonicalizeAll(graph);
      for (size_t i = 0; i < fresh.size(); ++i) {
        if (!SameCanonical(fresh[i], current[i])) {
          r.changed.push_back(static_cast<int>(i));
        }
      }
      for (int a : r.affected) {
        const CanonicalCandidate& c = fresh[static_cast<size_t>(a)];
        index.Register(a, c.key, c.provenance, graph);
        current[static_cast<size_t>(a)] = c;
      }

      std::string keys;
      for (const CanonicalKey& key : exclusive) {
        char field[40];
        std::snprintf(field, sizeof(field), "%s%016" PRIx64 ":%s",
                      keys.empty() ? "" : ",", Fnv1a64(key.repr),
                      index.HasKey(key) ? "kept" : "gone");
        keys += field;
      }
      char ops[64];
      std::snprintf(ops, sizeof(ops), "%zu,%zu,%zu,%zu,%zu,%zu",
                    delta.add_nodes.size(), delta.add_edges.size(),
                    delta.remove_edges.size(), delta.reweight_edges.size(),
                    delta.revise_node_probs.size(),
                    delta.revise_source_priors.size());
      r.golden_line = query.spec.gene_symbol + " " + std::to_string(step) +
                      " ops=" + ops + " affected=" + JoinInts(r.affected) +
                      " keys=" + (keys.empty() ? "-" : keys);
      replayed.push_back(std::move(r));
    }
  }
  return replayed;
}

/// The replay is deterministic and shared by the tests below.
const std::vector<ReplayedDelta>& Replayed() {
  static const std::vector<ReplayedDelta>* replayed =
      new std::vector<ReplayedDelta>(ReplaySeededDeltas());
  return *replayed;
}

constexpr char kGoldenHeader[] =
    "# Dependency-index golden fixture, asserted by\n"
    "# ingest_dependency_index_test. One line per seeded delta (25 per\n"
    "# Table-1 query graph): gene, step, the delta's op counts (add_nodes,\n"
    "# add_edges, remove_edges, reweight_edges, revise_node_probs,\n"
    "# revise_source_priors), the sorted AffectedAnswers list, and per\n"
    "# ExclusiveKeys key the FNV-1a 64 of its repr and whether HasKey\n"
    "# still finds it after the dirty answers re-register.\n";

TEST(DependencyGoldenTest, SeededDeltasMatchTheFixture) {
  std::vector<std::string> actual;
  for (const ReplayedDelta& r : Replayed()) actual.push_back(r.golden_line);
  ASSERT_EQ(actual.size(), 500u);

  std::vector<std::string> expected;
  std::ifstream fixture(BIORANK_TESTDATA_DIR "/dependency_golden.txt");
  for (std::string line; std::getline(fixture, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  if (actual != expected) {
    // Only for an intentional change of the index's answers: diff this
    // file, then copy it over tests/testdata/dependency_golden.txt.
    std::ofstream out("dependency_golden.actual.txt");
    out << kGoldenHeader;
    for (const std::string& line : actual) out << line << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size())
      << "see dependency_golden.actual.txt";
  size_t mismatches = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != expected[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "expected " << expected[i] << "\n  actual   "
                    << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "actual lines in dependency_golden.actual.txt";
}

TEST(DependencyGoldenTest, DirtyCoverIsSound) {
  // The header's claim: every answer whose restricted subgraph a delta
  // changes is dirtied. A from-scratch canonicalization with provenance
  // after each delta is the witness — any answer whose key or footprint
  // moved must be in AffectedAnswers.
  int witnessed[kOpKinds] = {};
  size_t missed = 0;
  for (const ReplayedDelta& r : Replayed()) {
    for (int answer : r.changed) {
      if (!std::binary_search(r.affected.begin(), r.affected.end(),
                              answer) &&
          ++missed <= 5) {
        ADD_FAILURE() << "answer " << answer << " changed but was not "
                      << "dirtied: " << r.golden_line.substr(0, 80);
      }
    }
    if (!r.changed.empty()) ++witnessed[r.lead_kind];
  }
  EXPECT_EQ(missed, 0u) << "changed answers missing from AffectedAnswers";
  // Every op kind must actually move some answer, or the check above
  // would say nothing about its rule.
  for (int kind = 0; kind < kOpKinds; ++kind) {
    EXPECT_GT(witnessed[kind], 0) << "op kind " << kind;
  }
}

}  // namespace
}  // namespace biorank::ingest
