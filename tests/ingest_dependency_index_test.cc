// Dependency-index semantics: provenance registration, reverse postings
// by node/edge/entity set, the affected-answer cover for every delta op
// (including the add-edge descendant rule, where the affected answer's
// subgraph contains neither endpoint of the new edge), and exclusive-key
// extraction for cache invalidation.

#include "ingest/dependency_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/canonical.h"
#include "core/query_graph.h"

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

TEST(DependencyIndexTest, NodeAndSourcePriorOpsUsePostings) {
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

TEST(DependencyIndexTest, UnregisterDropsPostings) {
  Fixture f = Make();
  EXPECT_EQ(f.index.registered(), 2);
  f.index.Unregister(0);
  EXPECT_EQ(f.index.registered(), 1);
  EXPECT_EQ(f.index.KeyOf(0), nullptr);
  ASSERT_NE(f.index.KeyOf(1), nullptr);
  AppliedDelta applied;
  EvidenceDelta revise;
  revise.revise_node_probs.push_back({f.a, 0.5});
  EXPECT_TRUE(f.index.AffectedAnswers(revise, applied, f.graph).empty());
  // Re-registration restores them.
  f.index.Register(0, f.c0.key, f.c0.provenance, f.graph);
  EXPECT_EQ(f.index.AffectedAnswers(revise, applied, f.graph),
            (std::vector<int>{0}));
}

}  // namespace
}  // namespace biorank::ingest
