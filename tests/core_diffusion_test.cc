#include "core/diffusion.h"

#include <gtest/gtest.h>

#include "core/query_graph.h"
#include "util/rng.h"

namespace biorank {
namespace {

TEST(DiffusionInnerSolveTest, NoParentsIsZero) {
  EXPECT_DOUBLE_EQ(
      SolveDiffusionInflow({}, {}, DiffusionInnerSolver::kAnalytic), 0.0);
}

TEST(DiffusionInnerSolveTest, SingleParentClosedForm) {
  // t = (r - t) q  =>  t = rq / (1 + q).
  double t = SolveDiffusionInflow({1.0}, {0.5},
                                  DiffusionInnerSolver::kAnalytic);
  EXPECT_NEAR(t, 0.5 / 1.5, 1e-12);
}

TEST(DiffusionInnerSolveTest, TwoEqualParents) {
  // Figure 4a's answer node: parents r=1/6, q=1 twice -> t = (2/6)/3 = 1/9.
  double t = SolveDiffusionInflow({1.0 / 6, 1.0 / 6}, {1.0, 1.0},
                                  DiffusionInnerSolver::kAnalytic);
  EXPECT_NEAR(t, 1.0 / 9, 1e-12);
}

TEST(DiffusionInnerSolveTest, WeakParentExcludedFromFlow) {
  // Strong parent r=1.0 q=1, weak parent r=0.1 q=1: candidate with both
  // included gives t=(1.1)/3=0.3667 > 0.1, inconsistent; only the strong
  // parent flows: t = 1/2 = 0.5. Check: (1-0.5)*1 + max((0.1-0.5),0) = 0.5.
  double t = SolveDiffusionInflow({1.0, 0.1}, {1.0, 1.0},
                                  DiffusionInnerSolver::kAnalytic);
  EXPECT_NEAR(t, 0.5, 1e-12);
}

TEST(DiffusionInnerSolveTest, BisectionMatchesAnalyticOnRandomInputs) {
  Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    int n = 1 + static_cast<int>(rng.NextBounded(6));
    std::vector<double> r(n), q(n);
    for (int i = 0; i < n; ++i) {
      r[i] = rng.NextDouble();
      q[i] = rng.NextDouble();
    }
    double analytic =
        SolveDiffusionInflow(r, q, DiffusionInnerSolver::kAnalytic);
    double bisect =
        SolveDiffusionInflow(r, q, DiffusionInnerSolver::kBisection);
    EXPECT_NEAR(analytic, bisect, 1e-9) << "trial " << trial;
  }
}

TEST(DiffusionInnerSolveTest, SolutionSatisfiesFixpointEquation) {
  Rng rng(556);
  for (int trial = 0; trial < 100; ++trial) {
    int n = 1 + static_cast<int>(rng.NextBounded(5));
    std::vector<double> r(n), q(n);
    for (int i = 0; i < n; ++i) {
      r[i] = rng.NextDouble();
      q[i] = rng.NextDouble();
    }
    double t = SolveDiffusionInflow(r, q, DiffusionInnerSolver::kAnalytic);
    double f = 0.0;
    for (int i = 0; i < n; ++i) f += std::max((r[i] - t) * q[i], 0.0);
    EXPECT_NEAR(t, f, 1e-9) << "trial " << trial;
  }
}

TEST(DiffusionTest, Fig4aMatchesPaper) {
  QueryGraph g = MakeFig4aSerialParallel();
  Result<IterativeScores> r = Diffuse(g);
  ASSERT_TRUE(r.ok());
  // Figure 4a reports diffusion r = 0.11 = 1/9.
  EXPECT_NEAR(r.value().scores[g.answers[0]], 1.0 / 9, 1e-6);
}

TEST(DiffusionTest, WheatstoneBridgeFixpoint) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  Result<IterativeScores> r = Diffuse(g);
  ASSERT_TRUE(r.ok());
  // The unique fixpoint of the Section 3.3 equations on the bridge:
  // r_bar(a) = r_bar(b) = 1/3, r_bar(u) = 1/6. (The figure prints 0.11,
  // which equals the Fig 4a value; see EXPERIMENTS.md for the note.)
  EXPECT_NEAR(r.value().scores[g.answers[0]], 1.0 / 6, 1e-6);
}

TEST(DiffusionTest, SourceIsPinnedAtOne) {
  QueryGraph g = MakeFig4aSerialParallel();
  Result<IterativeScores> r = Diffuse(g);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().scores[g.source], 1.0);
}

TEST(DiffusionTest, NodeProbabilityScalesScore) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.5, "t");
  b.Edge(b.Source(), t, 1.0);
  QueryGraph g = std::move(b).Build({t});
  Result<IterativeScores> r = Diffuse(g);
  ASSERT_TRUE(r.ok());
  // r_bar(t) = 1/2 (single certain edge), r(t) = 1/2 * p = 0.25.
  EXPECT_NEAR(r.value().scores[t], 0.25, 1e-9);
}

TEST(DiffusionTest, FavorsShortStrongPathOverLongOne) {
  // One-hop strong path vs three-hop equally strong path: the diffusion
  // semantics (Sect 3.3) penalizes path length much more than propagation.
  QueryGraphBuilder b;
  NodeId near_t = b.Node(1.0, "near");
  NodeId m1 = b.Node(1.0), m2 = b.Node(1.0);
  NodeId far_t = b.Node(1.0, "far");
  b.Edge(b.Source(), near_t, 0.9);
  b.Edge(b.Source(), m1, 0.9);
  b.Edge(m1, m2, 1.0);
  b.Edge(m2, far_t, 1.0);
  QueryGraph g = std::move(b).Build({near_t, far_t});
  Result<IterativeScores> r = Diffuse(g);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().scores[near_t], r.value().scores[far_t]);
}

TEST(DiffusionTest, BisectionSolverAgreesOnGraphScores) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  DiffusionOptions analytic;
  DiffusionOptions bisect;
  bisect.solver = DiffusionInnerSolver::kBisection;
  Result<IterativeScores> ra = Diffuse(g, analytic);
  Result<IterativeScores> rb = Diffuse(g, bisect);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  for (NodeId i : g.graph.AliveNodes()) {
    EXPECT_NEAR(ra.value().scores[i], rb.value().scores[i], 1e-6);
  }
}

TEST(DiffusionTest, ConvergesOnCycles) {
  QueryGraphBuilder b;
  NodeId a = b.Node(1.0, "a");
  NodeId bb = b.Node(1.0, "b");
  b.Edge(b.Source(), a, 0.5);
  b.Edge(a, bb, 0.8);
  b.Edge(bb, a, 0.8);
  QueryGraph g = std::move(b).Build({a, bb});
  Result<IterativeScores> r = Diffuse(g);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().converged);
}

TEST(DiffusionTest, RejectsBadOptions) {
  QueryGraph g = MakeFig4aSerialParallel();
  DiffusionOptions options;
  options.max_iterations = 0;
  EXPECT_FALSE(Diffuse(g, options).ok());
  // With no bisection step the solver would return half its bracket's
  // upper end instead of the fixpoint.
  options.max_iterations = 200;
  options.solver = DiffusionInnerSolver::kBisection;
  options.bisection_steps = 0;
  Result<IterativeScores> r = Diffuse(g, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  options.solver = DiffusionInnerSolver::kAnalytic;  // Steps unused.
  EXPECT_TRUE(Diffuse(g, options).ok());
}

TEST(IterativeScoresTest, DeadAndImpossibleNodesKeepTheirIdsAndScoreZero) {
  // Prop and Diff sweep only the alive nodes and map the scores back to
  // NodeIds: a removed interior node and an alive p = 0 node must both
  // score exactly 0 at their own ids, and so must an answer reachable
  // only through the removed node.
  QueryGraphBuilder b;
  NodeId dead = b.Node(0.9, "dead");
  NodeId impossible = b.Node(0.0, "impossible");
  NodeId mid = b.Node(0.8, "mid");
  NodeId cut_off = b.Node(0.9, "cut_off");
  NodeId reached = b.Node(1.0, "reached");
  b.Edge(b.Source(), dead, 0.9);
  b.Edge(dead, cut_off, 0.9);
  b.Edge(b.Source(), impossible, 0.9);
  b.Edge(impossible, reached, 0.9);
  b.Edge(b.Source(), mid, 0.5);
  b.Edge(mid, reached, 0.5);
  QueryGraph g = std::move(b).Build({cut_off, reached});
  ASSERT_TRUE(g.graph.RemoveNode(dead).ok());

  const Result<IterativeScores> runs[] = {Propagate(g), Diffuse(g)};
  for (const Result<IterativeScores>& r : runs) {
    ASSERT_TRUE(r.ok()) << r.status();
    const std::vector<double>& scores = r.value().scores;
    ASSERT_EQ(scores.size(), static_cast<size_t>(g.graph.node_capacity()));
    EXPECT_EQ(scores[g.source], 1.0);
    EXPECT_EQ(scores[dead], 0.0);
    EXPECT_EQ(scores[impossible], 0.0);
    EXPECT_EQ(scores[cut_off], 0.0);
    EXPECT_GT(scores[mid], 0.0);
    EXPECT_GT(scores[reached], 0.0);
  }
  EXPECT_DOUBLE_EQ(runs[0].value().scores[reached], 0.4 * 0.5);
}

}  // namespace
}  // namespace biorank
