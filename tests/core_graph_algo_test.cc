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

TEST(ReachabilityTest, CoReachableIsReverse) {
  std::vector<NodeId> ids;
  ProbabilisticEntityGraph g = Chain(4, &ids);
  std::vector<bool> r = CoReachable(g, ids[2]);
  EXPECT_TRUE(r[ids[0]]);
  EXPECT_TRUE(r[ids[1]]);
  EXPECT_TRUE(r[ids[2]]);
  EXPECT_FALSE(r[ids[3]]);
}

TEST(TopologicalOrderTest, ChainOrder) {
  std::vector<NodeId> ids;
  ProbabilisticEntityGraph g = Chain(4, &ids);
  Result<std::vector<NodeId>> order = TopologicalOrder(g);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), ids);
}

TEST(TopologicalOrderTest, CycleIsRejected) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  g.AddEdge(a, b, 1.0).value();
  g.AddEdge(b, a, 1.0).value();
  Result<std::vector<NodeId>> order = TopologicalOrder(g);
  ASSERT_FALSE(order.ok());
  EXPECT_EQ(order.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TopologicalOrderTest, RespectsEdgesInDag) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  NodeId c = g.AddNode(1.0);
  g.AddEdge(a, c, 1.0).value();
  g.AddEdge(b, c, 1.0).value();
  Result<std::vector<NodeId>> order = TopologicalOrder(g);
  ASSERT_TRUE(order.ok());
  std::vector<int> pos(3);
  for (int i = 0; i < 3; ++i) pos[order.value()[i]] = i;
  EXPECT_LT(pos[a], pos[c]);
  EXPECT_LT(pos[b], pos[c]);
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

TEST(LongestPathTest, ChainLength) {
  std::vector<NodeId> ids;
  ProbabilisticEntityGraph g = Chain(5, &ids);
  Result<int> len = LongestPathLengthFrom(g, ids[0]);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 4);
}

TEST(LongestPathTest, BridgeTakesLongerRoute) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  Result<int> len = LongestPathLengthFrom(g.graph, g.source);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 3);  // s -> a -> b -> u.
}

TEST(LongestPathTest, CycleReachableFails) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  g.AddEdge(a, b, 1.0).value();
  g.AddEdge(b, a, 1.0).value();
  EXPECT_FALSE(LongestPathLengthFrom(g, a).ok());
}

TEST(LongestPathTest, UnreachableCycleElsewhereIsFine) {
  ProbabilisticEntityGraph g;
  NodeId s = g.AddNode(1.0);
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  NodeId c = g.AddNode(1.0);
  g.AddEdge(s, a, 1.0).value();
  g.AddEdge(b, c, 1.0).value();
  g.AddEdge(c, b, 1.0).value();
  Result<int> len = LongestPathLengthFrom(g, s);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 1);
}

TEST(InducedSubgraphTest, KeepsSelectedNodesAndInternalEdges) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(0.9, "a");
  NodeId b = g.AddNode(0.8, "b");
  NodeId c = g.AddNode(0.7, "c");
  g.AddEdge(a, b, 0.5).value();
  g.AddEdge(b, c, 0.4).value();
  std::vector<bool> keep = {true, true, false};
  std::vector<NodeId> mapping;
  ProbabilisticEntityGraph sub = InducedSubgraph(g, keep, &mapping);
  EXPECT_EQ(sub.num_nodes(), 2);
  EXPECT_EQ(sub.num_edges(), 1);
  EXPECT_EQ(mapping[c], kInvalidNode);
  EXPECT_NE(mapping[a], kInvalidNode);
  EXPECT_EQ(sub.node(mapping[a]).label, "a");
  EXPECT_DOUBLE_EQ(sub.node(mapping[b]).p, 0.8);
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

TEST(DotExportTest, MentionsAllNodesAndProbs) {
  QueryGraph g = MakeFig4aSerialParallel();
  std::string dot = ToDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("0.5"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // Answer style.
  EXPECT_NE(dot.find("box"), std::string::npos);           // Source style.
  // 5 nodes and 5 edges.
  size_t arrows = 0;
  for (size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 2)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 5u);
}

}  // namespace
}  // namespace biorank
