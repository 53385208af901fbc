#include "core/graph_algo.h"

#include <gtest/gtest.h>

#include "core/query_graph.h"

namespace biorank {
namespace {

ProbabilisticEntityGraph Chain(int n, std::vector<NodeId>* ids) {
  ProbabilisticEntityGraph g;
  for (int i = 0; i < n; ++i) ids->push_back(g.AddNode(1.0));
  for (int i = 0; i + 1 < n; ++i) {
    g.AddEdge((*ids)[i], (*ids)[i + 1], 1.0).value();
  }
  return g;
}

TEST(ReachabilityTest, ChainIsFullyReachableFromHead) {
  std::vector<NodeId> ids;
  ProbabilisticEntityGraph g = Chain(4, &ids);
  std::vector<bool> r = ReachableFrom(g, ids[0]);
  for (NodeId id : ids) EXPECT_TRUE(r[id]);
}

TEST(ReachabilityTest, NothingBehindTheStart) {
  std::vector<NodeId> ids;
  ProbabilisticEntityGraph g = Chain(4, &ids);
  std::vector<bool> r = ReachableFrom(g, ids[2]);
  EXPECT_FALSE(r[ids[0]]);
  EXPECT_FALSE(r[ids[1]]);
  EXPECT_TRUE(r[ids[2]]);
  EXPECT_TRUE(r[ids[3]]);
}

TEST(ReachabilityTest, InvalidStartYieldsAllFalse) {
  std::vector<NodeId> ids;
  ProbabilisticEntityGraph g = Chain(3, &ids);
  std::vector<bool> r = ReachableFrom(g, 99);
  for (bool b : r) EXPECT_FALSE(b);
}

TEST(CycleDetectionTest, SelfLoopCounts) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  g.AddEdge(a, a, 0.5).value();
  EXPECT_TRUE(HasCycleReachableFrom(g, a));
}

TEST(CycleDetectionTest, UnreachableCycleIgnored) {
  ProbabilisticEntityGraph g;
  NodeId s = g.AddNode(1.0);
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  NodeId c = g.AddNode(1.0);
  g.AddEdge(s, a, 1.0).value();
  g.AddEdge(b, c, 1.0).value();
  g.AddEdge(c, b, 1.0).value();  // Cycle not reachable from s.
  EXPECT_FALSE(HasCycleReachableFrom(g, s));
  EXPECT_TRUE(HasCycleReachableFrom(g, b));
}

TEST(CycleDetectionTest, DiamondIsAcyclic) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  EXPECT_FALSE(HasCycleReachableFrom(g.graph, g.source));
}

TEST(RestrictTest, DropsNodesOffAllPaths) {
  QueryGraphBuilder builder;
  NodeId s = builder.Source();
  NodeId mid = builder.Node(0.9, "mid");
  NodeId t = builder.Node(0.8, "t");
  NodeId stray = builder.Node(0.7, "stray");     // Reachable, not co-reachable.
  NodeId island = builder.Node(0.6, "island");   // Fully disconnected.
  (void)island;
  builder.Edge(s, mid, 0.5);
  builder.Edge(mid, t, 0.5);
  builder.Edge(mid, stray, 0.5);
  QueryGraph g = std::move(builder).Build({t});
  QueryGraph sub = RestrictToQueryRelevantSubgraph(g, g.answers);
  EXPECT_EQ(sub.graph.num_nodes(), 3);  // s, mid, t.
  EXPECT_EQ(sub.graph.num_edges(), 2);
  EXPECT_EQ(sub.answers.size(), 1u);
  EXPECT_TRUE(sub.Validate().ok());
  // Kept nodes keep their labels and probabilities under dense ids.
  EXPECT_EQ(sub.graph.node(sub.answers[0]).label, "t");
  EXPECT_DOUBLE_EQ(sub.graph.node(sub.answers[0]).p, 0.8);
}

TEST(RestrictTest, UnreachableAnswerKeptIsolated) {
  QueryGraphBuilder builder;
  NodeId s = builder.Source();
  NodeId t = builder.Node(0.8, "t");
  NodeId orphan_answer = builder.Node(0.7, "orphan");
  builder.Edge(s, t, 0.5);
  QueryGraph g = std::move(builder).Build({t, orphan_answer});
  QueryGraph sub = RestrictToQueryRelevantSubgraph(g, g.answers);
  EXPECT_EQ(sub.answers.size(), 2u);
  EXPECT_TRUE(sub.Validate().ok());
  // The orphan answer survives with no edges.
  EXPECT_EQ(sub.graph.InDegree(sub.answers[1]), 0);
}

}  // namespace
}  // namespace biorank
