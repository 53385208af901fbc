#include "core/ranking.h"

#include <gtest/gtest.h>

#include "core/query_graph.h"

namespace biorank {
namespace {

TEST(RankAnswersTest, SortsByScoreDescending) {
  std::vector<NodeId> answers = {1, 2, 3};
  std::vector<double> scores = {0.0, 0.2, 0.9, 0.5};
  std::vector<RankedAnswer> ranked = RankAnswers(answers, scores);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].node, 2);
  EXPECT_EQ(ranked[1].node, 3);
  EXPECT_EQ(ranked[2].node, 1);
  EXPECT_EQ(ranked[0].rank_lo, 1);
  EXPECT_EQ(ranked[0].rank_hi, 1);
  EXPECT_EQ(ranked[2].rank_lo, 3);
}

TEST(RankAnswersTest, TiesShareRankInterval) {
  std::vector<NodeId> answers = {1, 2, 3, 4};
  std::vector<double> scores = {0.0, 0.5, 0.5, 0.9, 0.5};
  std::vector<RankedAnswer> ranked = RankAnswers(answers, scores);
  // Node 3 first; nodes 1, 2, 4 tied across ranks 2-4.
  EXPECT_EQ(ranked[0].node, 3);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(ranked[i].rank_lo, 2);
    EXPECT_EQ(ranked[i].rank_hi, 4);
  }
}

TEST(RankAnswersTest, AllTiedSpanWholeList) {
  std::vector<NodeId> answers = {1, 2, 3};
  std::vector<double> scores = {0, 0.4, 0.4, 0.4};
  std::vector<RankedAnswer> ranked = RankAnswers(answers, scores);
  for (const RankedAnswer& a : ranked) {
    EXPECT_EQ(a.rank_lo, 1);
    EXPECT_EQ(a.rank_hi, 3);
  }
}

TEST(RankAnswersTest, EpsilonGroupsNearTies) {
  std::vector<NodeId> answers = {1, 2};
  std::vector<double> scores = {0, 0.5, 0.5 + 1e-12};
  std::vector<RankedAnswer> ranked = RankAnswers(answers, scores, 1e-9);
  EXPECT_EQ(ranked[0].rank_lo, 1);
  EXPECT_EQ(ranked[0].rank_hi, 2);
}

TEST(RankAnswersTest, ZeroEpsilonSeparatesNearTies) {
  std::vector<NodeId> answers = {1, 2};
  std::vector<double> scores = {0, 0.5, 0.5 + 1e-12};
  std::vector<RankedAnswer> ranked = RankAnswers(answers, scores, 0.0);
  EXPECT_EQ(ranked[0].rank_hi, 1);
  EXPECT_EQ(ranked[1].rank_lo, 2);
}

TEST(RankAnswersTest, MissingScoreTreatedAsZero) {
  std::vector<NodeId> answers = {1, 7};
  std::vector<double> scores = {0, 0.5};  // Node 7 out of range.
  std::vector<RankedAnswer> ranked = RankAnswers(answers, scores);
  EXPECT_EQ(ranked[0].node, 1);
  EXPECT_DOUBLE_EQ(ranked[1].score, 0.0);
}

TEST(RankingMethodTest, NamesMatchPaperFigures) {
  EXPECT_STREQ(RankingMethodName(RankingMethod::kReliability), "Rel");
  EXPECT_STREQ(RankingMethodName(RankingMethod::kPropagation), "Prop");
  EXPECT_STREQ(RankingMethodName(RankingMethod::kDiffusion), "Diff");
  EXPECT_STREQ(RankingMethodName(RankingMethod::kInEdge), "InEdge");
  EXPECT_STREQ(RankingMethodName(RankingMethod::kPathCount), "PathC");
  EXPECT_EQ(AllRankingMethods().size(), 5u);
}

TEST(RankerTest, AllFiveMethodsScoreFig4a) {
  QueryGraph g = MakeFig4aSerialParallel();
  Ranker ranker;
  // The five Figure 4a values in one sweep.
  struct Expected {
    RankingMethod method;
    double value;
  };
  const Expected expected[] = {
      {RankingMethod::kReliability, 0.5},
      {RankingMethod::kPropagation, 0.75},
      {RankingMethod::kDiffusion, 1.0 / 9},
      {RankingMethod::kInEdge, 2.0},
      {RankingMethod::kPathCount, 2.0},
  };
  for (const Expected& e : expected) {
    Result<std::vector<double>> scores = ranker.ScoreAllNodes(g, e.method);
    ASSERT_TRUE(scores.ok()) << RankingMethodName(e.method);
    EXPECT_NEAR(scores.value()[g.answers[0]], e.value, 1e-6)
        << RankingMethodName(e.method);
  }
}

TEST(RankerTest, AutoEngineFallsBackToMcOnBridge) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  RankerOptions options;
  options.mc.trials = 200000;
  options.mc.seed = 3;
  Ranker ranker(options);
  Result<std::vector<double>> scores =
      ranker.ScoreAllNodes(g, RankingMethod::kReliability);
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR(scores.value()[g.answers[0]], 15.0 / 32.0, 0.01);
}

TEST(RankerTest, ClosedFormEngineFailsOnBridge) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  RankerOptions options;
  options.reliability_engine = ReliabilityEngine::kClosedForm;
  Ranker ranker(options);
  EXPECT_FALSE(ranker.ScoreAllNodes(g, RankingMethod::kReliability).ok());
}

TEST(RankerTest, ExactEngineMatchesTruthOnBridge) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  RankerOptions options;
  options.reliability_engine = ReliabilityEngine::kExact;
  Ranker ranker(options);
  Result<std::vector<double>> scores =
      ranker.ScoreAllNodes(g, RankingMethod::kReliability);
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR(scores.value()[g.answers[0]], 15.0 / 32.0, 1e-12);
}

TEST(RankerTest, McWithReductionsMatchesTruth) {
  QueryGraph g = MakeFig4aSerialParallel();
  RankerOptions options;
  options.reliability_engine = ReliabilityEngine::kMonteCarlo;
  options.mc.trials = 100000;
  Ranker ranker(options);
  Result<std::vector<double>> scores =
      ranker.ScoreAllNodes(g, RankingMethod::kReliability);
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR(scores.value()[g.answers[0]], 0.5, 0.01);
}

TEST(RankerTest, RankProducesTieIntervals) {
  // Two answers reached by the same certain structure tie exactly.
  QueryGraphBuilder b;
  NodeId t1 = b.Node(1.0, "t1");
  NodeId t2 = b.Node(1.0, "t2");
  NodeId t3 = b.Node(1.0, "t3");
  b.Edge(b.Source(), t1, 0.5);
  b.Edge(b.Source(), t2, 0.5);
  b.Edge(b.Source(), t3, 0.9);
  QueryGraph g = std::move(b).Build({t1, t2, t3});
  Ranker ranker;
  Result<std::vector<RankedAnswer>> ranked =
      ranker.Rank(g, RankingMethod::kReliability);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked.value()[0].node, t3);
  EXPECT_EQ(ranked.value()[1].rank_lo, 2);
  EXPECT_EQ(ranked.value()[1].rank_hi, 3);
  EXPECT_EQ(ranked.value()[2].rank_lo, 2);
  EXPECT_EQ(ranked.value()[2].rank_hi, 3);
}

TEST(RankerTest, PathCountErrorPropagates) {
  QueryGraphBuilder b;
  NodeId a = b.Node(1.0, "a");
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), a, 0.5);
  b.Edge(a, t, 0.5);
  b.Edge(t, a, 0.5);
  QueryGraph g = std::move(b).Build({t});
  Ranker ranker;
  EXPECT_FALSE(ranker.Rank(g, RankingMethod::kPathCount).ok());
}

}  // namespace
}  // namespace biorank
