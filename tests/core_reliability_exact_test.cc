#include "core/reliability_exact.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/closed_form.h"
#include "core/csr_snapshot.h"
#include "core/graph_algo.h"
#include "core/query_graph.h"
#include "core/reliability_bounds.h"
#include "testing/random_graphs.h"
#include "util/parallel.h"

namespace biorank {
namespace {

TEST(BruteForceTest, SingleEdge) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.8, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.4, 1e-12);
}

TEST(BruteForceTest, SerialChain) {
  QueryGraphBuilder b;
  NodeId mid = b.Node(0.5, "mid");
  NodeId t = b.Node(0.8, "t");
  b.Edge(b.Source(), mid, 0.9);
  b.Edge(mid, t, 0.7);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.9 * 0.5 * 0.7 * 0.8, 1e-12);
}

TEST(BruteForceTest, ParallelEdges) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.5);
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.75, 1e-12);
}

TEST(BruteForceTest, Fig4aIsHalf) {
  QueryGraph g = MakeFig4aSerialParallel();
  Result<double> r = ExactReliabilityBruteForce(g, g.answers[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.5, 1e-12);
}

TEST(BruteForceTest, WheatstoneBridgeMatchesPaper) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  Result<double> r = ExactReliabilityBruteForce(g, g.answers[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 15.0 / 32.0, 1e-12);  // 0.469 in Figure 4b.
}

TEST(BruteForceTest, UnreachableTargetIsZero) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.9, "t");
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(BruteForceTest, SourceIsItsOwnTargetWithProbOne) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.9, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, g.source);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 1.0);
}

TEST(BruteForceTest, RefusesTooManyUncertainElements) {
  QueryGraphBuilder b;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 30; ++i) {
    NodeId n = b.Node(0.5);
    b.Edge(b.Source(), n, 0.5);
    nodes.push_back(n);
  }
  QueryGraph g = std::move(b).Build(nodes);
  Result<double> r = ExactReliabilityBruteForce(g, nodes[0], 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BruteForceTest, ZeroProbabilityEdgeNeverConnects) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.0);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(FactoringTest, MatchesBruteForceOnBridge) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  Result<double> r = ExactReliabilityFactoring(g, g.answers[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 15.0 / 32.0, 1e-12);
}

TEST(FactoringTest, MatchesBruteForceOnFig4a) {
  QueryGraph g = MakeFig4aSerialParallel();
  Result<double> r = ExactReliabilityFactoring(g, g.answers[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.5, 1e-12);
}

TEST(FactoringTest, HandlesUncertainNodesViaReification) {
  QueryGraphBuilder b;
  NodeId mid = b.Node(0.5, "mid");
  NodeId t = b.Node(0.8, "t");
  b.Edge(b.Source(), mid, 0.9);
  b.Edge(mid, t, 0.7);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityFactoring(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.9 * 0.5 * 0.7 * 0.8, 1e-12);
}

TEST(FactoringTest, UnreachableTargetIsZero) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.9, "t");
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityFactoring(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(FactoringTest, BudgetExceededFails) {
  // The bridge is irreducible, so the root call conditions an edge and
  // recurses into both branches: three calls against a budget of two.
  QueryGraph g = MakeFig4bWheatstoneBridge();
  FactoringOptions options;
  options.max_calls = 2;
  Result<double> r = ExactReliabilityFactoring(g, g.answers[0], options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FactoringTest, AllAnswersVector) {
  QueryGraphBuilder b;
  NodeId t1 = b.Node(1.0, "t1");
  NodeId t2 = b.Node(1.0, "t2");
  b.Edge(b.Source(), t1, 0.5);
  b.Edge(b.Source(), t2, 0.25);
  QueryGraph g = std::move(b).Build({t1, t2});
  Result<std::vector<double>> r = ExactReliabilityAllAnswers(g);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_NEAR(r.value()[0], 0.5, 1e-12);
  EXPECT_NEAR(r.value()[1], 0.25, 1e-12);
}

TEST(FactoringTest, DoubleBridgeMatchesBruteForce) {
  // Two Wheatstone bridges in series: irreducible beyond one conditioning.
  QueryGraphBuilder b;
  NodeId a1 = b.Node(1.0), b1 = b.Node(1.0), m = b.Node(1.0);
  NodeId a2 = b.Node(1.0), b2 = b.Node(1.0), t = b.Node(1.0);
  NodeId s = b.Source();
  b.Edge(s, a1, 0.6);
  b.Edge(s, b1, 0.7);
  b.Edge(a1, b1, 0.5);
  b.Edge(a1, m, 0.8);
  b.Edge(b1, m, 0.4);
  b.Edge(m, a2, 0.6);
  b.Edge(m, b2, 0.7);
  b.Edge(a2, b2, 0.5);
  b.Edge(a2, t, 0.8);
  b.Edge(b2, t, 0.4);
  QueryGraph g = std::move(b).Build({t});
  Result<double> brute = ExactReliabilityBruteForce(g, t);
  Result<double> factored = ExactReliabilityFactoring(g, t);
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(factored.ok());
  EXPECT_NEAR(brute.value(), factored.value(), 1e-12);
}

/// Factoring and the closed form against the brute-force oracle for one
/// target; the closed form must reduce the target's subgraph fully.
void ExpectExactMethodsAgree(const QueryGraph& g, NodeId target) {
  Result<double> brute = ExactReliabilityBruteForce(g, target);
  Result<double> factored = ExactReliabilityFactoring(g, target);
  Result<double> closed = ClosedFormReliability(g, target);
  ASSERT_TRUE(brute.ok()) << brute.status();
  ASSERT_TRUE(factored.ok()) << factored.status();
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_NEAR(factored.value(), brute.value(), 1e-12) << "target " << target;
  EXPECT_NEAR(closed.value(), brute.value(), 1e-12) << "target " << target;
}

TEST(ExactMethodsTest, SourceAsItsOwnTargetOnACycle) {
  // The source's reliability is its own presence probability, even when
  // a cycle through it puts other nodes in its restricted subgraph.
  QueryGraph g;
  NodeId s = g.graph.AddNode(0.8, "s");
  NodeId a = g.graph.AddNode(0.9, "a");
  NodeId t = g.graph.AddNode(0.7, "t");
  g.graph.AddEdge(s, a, 0.5).value();
  g.graph.AddEdge(a, s, 0.6).value();
  g.graph.AddEdge(a, t, 0.4).value();
  g.source = s;
  g.answers = {t};
  ASSERT_TRUE(g.Validate().ok());
  ExpectExactMethodsAgree(g, s);
  EXPECT_NEAR(ExactReliabilityFactoring(g, s).value(), 0.8, 1e-12);
}

TEST(ExactMethodsTest, AnswerReachableOnlyThroughARemovedNode) {
  // Removing the interior node m cuts t1 off and leaves t2 one path.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId m = b.Node(0.9, "m");
  NodeId u = b.Node(0.8, "u");
  NodeId t1 = b.Node(0.7, "t1");
  NodeId t2 = b.Node(0.6, "t2");
  b.Edge(s, m, 0.5);
  b.Edge(m, t1, 0.5);
  b.Edge(m, t2, 0.4);
  b.Edge(s, u, 0.3);
  b.Edge(u, t2, 0.2);
  QueryGraph g = std::move(b).Build({t1, t2});
  ASSERT_TRUE(g.graph.RemoveNode(m).ok());
  ASSERT_TRUE(g.Validate().ok());
  ExpectExactMethodsAgree(g, t1);
  ExpectExactMethodsAgree(g, t2);
  EXPECT_DOUBLE_EQ(ExactReliabilityFactoring(g, t1).value(), 0.0);
  EXPECT_NEAR(ExactReliabilityFactoring(g, t2).value(), 0.3 * 0.8 * 0.2 * 0.6,
              1e-12);
}

std::string Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, bits);
  return hex;
}

/// The DAG sweep on `graph`'s query snapshot.
Result<double> Sweep(const QueryGraph& graph, NodeId target) {
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(graph);
  if (!snapshot.ok()) return snapshot.status();
  return ExactReliabilityDagSweep(snapshot.value(), target);
}

TEST(DagSweepTest, MatchesBruteForceOnTheRestrictionCorpus) {
  // Every answer of an acyclic corpus graph whose restricted subgraph is
  // small enough to enumerate; every answer of a cyclic graph declines.
  // Prints how many acyclic answers the state cap declined.
  int compared = 0, declined = 0, capped = 0;
  for (const QueryGraph& g : testing::MakeRestrictionCorpus()) {
    const bool acyclic = testing::IsAcyclic(g);
    const CsrSnapshot csr = BuildCsrSnapshot(g.graph);
    for (NodeId target : g.answers) {
      Result<double> swept = Sweep(g, target);
      if (!acyclic) {
        ASSERT_FALSE(swept.ok());
        EXPECT_EQ(swept.status().code(), StatusCode::kFailedPrecondition);
        ++declined;
        continue;
      }
      if (!swept.ok()) {  // Past the state cap: unreduced graphs are wide.
        EXPECT_EQ(swept.status().code(), StatusCode::kFailedPrecondition);
        ++capped;
        continue;
      }
      const QueryGraph restricted = RestrictToTarget(csr, g.source, target);
      Result<double> brute =
          ExactReliabilityBruteForce(restricted, restricted.answers[0], 18);
      if (!brute.ok()) continue;
      EXPECT_NEAR(swept.value(), brute.value(), 1e-12) << "target " << target;
      ++compared;
    }
  }
  EXPECT_GE(compared, 100);
  EXPECT_GE(declined, 100);
  std::printf("compared %d, cyclic %d, over the cap %d\n", compared, declined,
              capped);
}

TEST(DagSweepTest, SourceTargetAndUnreachableCases) {
  QueryGraphBuilder b;
  NodeId mid = b.Node(0.5, "mid");
  NodeId t = b.Node(0.8, "t");
  NodeId island = b.Node(0.9, "island");
  b.Edge(b.Source(), mid, 0.9);
  b.Edge(mid, t, 0.7);
  QueryGraph g = std::move(b).Build({t, island});
  EXPECT_NEAR(Sweep(g, t).value(), 0.9 * 0.5 * 0.7 * 0.8, 1e-15);
  EXPECT_EQ(Sweep(g, island).value(), 0.0);
  EXPECT_EQ(Sweep(g, g.source).value(), 1.0);
  EXPECT_EQ(Sweep(g, 99).status().code(), StatusCode::kInvalidArgument);
  QueryGraph bridge = MakeFig4bWheatstoneBridge();
  EXPECT_NEAR(Sweep(bridge, bridge.answers[0]).value(), 15.0 / 32.0, 1e-15);
}

/// The source fanned out to `width` certain nodes over edges of
/// probability `q`, each joined to the target by an edge of probability
/// 0.5: reliability 1 - (1 - q/2)^width.
QueryGraph Fan(int width, double q) {
  QueryGraphBuilder b;
  std::vector<NodeId> middle;
  for (int i = 0; i < width; ++i) middle.push_back(b.Node(1.0));
  NodeId t = b.Node(1.0, "t");
  for (NodeId m : middle) b.Edge(b.Source(), m, q);
  for (NodeId m : middle) b.Edge(m, t, 0.5);
  return std::move(b).Build({t});
}

TEST(DagSweepTest, DeclinesDeterministicallyPastTheStateCapAndWideFrontiers) {
  // Twelve uncertain branches keep 2^12 - 1 reached subsets open at once,
  // under the cap; fourteen keep 2^14 - 1, past it.
  QueryGraph narrow = Fan(12, 0.5);
  Result<double> fits = Sweep(narrow, narrow.answers[0]);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_NEAR(fits.value(), 1.0 - std::pow(0.75, 12), 1e-12);

  QueryGraph wide = Fan(14, 0.5);
  Result<double> first = Sweep(wide, wide.answers[0]);
  Result<double> second = Sweep(wide, wide.answers[0]);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(first.status().ToString(), second.status().ToString());

  // Certain fan-out edges keep one state, but 65 open nodes exceed the
  // 64 mask slots; 64 fit.
  QueryGraph certain = Fan(64, 1.0);
  EXPECT_NEAR(Sweep(certain, certain.answers[0]).value(),
              1.0 - std::pow(0.5, 64), 1e-12);
  QueryGraph too_wide = Fan(65, 1.0);
  EXPECT_EQ(Sweep(too_wide, too_wide.answers[0]).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DagSweepTest, DeclinesACycleOffEveryPath) {
  // A cycle that no source-target path touches still declines: the sweep
  // needs a topological order of the whole snapshot.
  QueryGraphBuilder b;
  NodeId t = b.Node(0.8, "t");
  NodeId x = b.Node(0.9), y = b.Node(0.9);
  b.Edge(b.Source(), t, 0.5);
  b.Edge(x, y, 0.5);
  b.Edge(y, x, 0.5);
  QueryGraph g = std::move(b).Build({t});
  EXPECT_EQ(Sweep(g, t).status().code(), StatusCode::kFailedPrecondition);
}

TEST(DagSweepTest, TwoCallsReturnTheSameBits) {
  std::vector<QueryGraph> corpus = testing::MakeLedgerDagCorpus();
  for (QueryGraph& g : testing::MakeRestrictionCorpus()) {
    corpus.push_back(std::move(g));
  }
  int swept = 0;
  for (const QueryGraph& g : corpus) {
    Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(g);
    ASSERT_TRUE(snapshot.ok());
    for (NodeId target : g.answers) {
      Result<double> a = ExactReliabilityDagSweep(snapshot.value(), target);
      Result<double> b = ExactReliabilityDagSweep(snapshot.value(), target);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) continue;
      EXPECT_EQ(Bits(a.value()), Bits(b.value()));
      ++swept;
    }
  }
  EXPECT_GE(swept, 768);
}

TEST(FactoringReentrancyTest, ConcurrentCallsMatchSerialBitsAndKeepInputs) {
  // Each call factors in place on its own working copy, so callers on
  // several threads share nothing but the const input graphs.
  const std::vector<QueryGraph> corpus = testing::MakeRestrictionCorpus();
  std::vector<std::pair<size_t, NodeId>> jobs;
  for (size_t g = 0; g < corpus.size(); ++g) {
    for (NodeId target : corpus[g].answers) jobs.emplace_back(g, target);
  }
  FactoringOptions options;
  options.max_calls = 2000;  // Most answers fit; the rest exit over budget.
  auto solve = [&](size_t job) {
    const auto& [g, target] = jobs[job];
    Result<double> exact =
        ExactReliabilityFactoring(corpus[g], target, options);
    Result<ReliabilityBounds> bounds = BoundReliability(corpus[g], target);
    return (exact.ok() ? Bits(exact.value()) : exact.status().ToString()) +
           " " +
           (bounds.ok() ? Bits(bounds.value().lower) + " " +
                              Bits(bounds.value().upper)
                        : bounds.status().ToString());
  };
  std::vector<std::string> serial(jobs.size());
  for (size_t job = 0; job < jobs.size(); ++job) serial[job] = solve(job);

  std::vector<std::string> concurrent(jobs.size());
  ThreadPool pool(4);
  pool.ParallelFor(static_cast<int64_t>(jobs.size()),
                   [&](int, int64_t job) {
                     concurrent[static_cast<size_t>(job)] =
                         solve(static_cast<size_t>(job));
                   });
  EXPECT_EQ(serial, concurrent);

  const std::vector<QueryGraph> pristine = testing::MakeRestrictionCorpus();
  for (size_t g = 0; g < corpus.size(); ++g) {
    const ProbabilisticEntityGraph& graph = corpus[g].graph;
    const ProbabilisticEntityGraph& before = pristine[g].graph;
    EXPECT_EQ(graph.num_nodes(), before.num_nodes()) << "graph " << g;
    EXPECT_EQ(graph.num_edges(), before.num_edges()) << "graph " << g;
    ASSERT_EQ(graph.edge_capacity(), before.edge_capacity()) << "graph " << g;
    for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
      EXPECT_EQ(graph.IsValidEdge(e), before.IsValidEdge(e));
      EXPECT_EQ(Bits(graph.edge(e).q), Bits(before.edge(e).q));
    }
  }
}

}  // namespace
}  // namespace biorank
