#include "core/graph.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

namespace biorank {
namespace {

TEST(GraphTest, AddNodeAssignsSequentialIds) {
  ProbabilisticEntityGraph g;
  EXPECT_EQ(g.AddNode(0.5), 0);
  EXPECT_EQ(g.AddNode(0.7), 1);
  EXPECT_EQ(g.num_nodes(), 2);
}

TEST(GraphTest, NodeProbabilityIsClamped) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.5);
  NodeId b = g.AddNode(-0.3);
  EXPECT_DOUBLE_EQ(g.node(a).p, 1.0);
  EXPECT_DOUBLE_EQ(g.node(b).p, 0.0);
}

TEST(GraphTest, AddEdgeConnectsNodes) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  Result<EdgeId> e = g.AddEdge(a, b, 0.5);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(g.edge(e.value()).from, a);
  EXPECT_EQ(g.edge(e.value()).to, b);
  EXPECT_DOUBLE_EQ(g.edge(e.value()).q, 0.5);
  EXPECT_EQ(g.OutDegree(a), 1);
  EXPECT_EQ(g.InDegree(b), 1);
}

TEST(GraphTest, AddEdgeRejectsInvalidEndpoints) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  EXPECT_FALSE(g.AddEdge(a, 99, 0.5).ok());
  EXPECT_FALSE(g.AddEdge(-1, a, 0.5).ok());
}

TEST(GraphTest, AddEdgeRejectsDeadEndpoint) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  g.RemoveNode(b);
  EXPECT_FALSE(g.AddEdge(a, b, 0.5).ok());
}

TEST(GraphTest, ParallelEdgesAreAllowed) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  ASSERT_TRUE(g.AddEdge(a, b, 0.3).ok());
  ASSERT_TRUE(g.AddEdge(a, b, 0.4).ok());
  EXPECT_EQ(g.OutDegree(a), 2);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(GraphTest, RemoveNodeKillsIncidentEdges) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  NodeId c = g.AddNode(1.0);
  g.AddEdge(a, b, 0.5).value();
  g.AddEdge(b, c, 0.5).value();
  g.AddEdge(a, c, 0.5).value();
  g.RemoveNode(b);
  EXPECT_FALSE(g.IsValidNode(b));
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 1);  // Only a->c survives.
  EXPECT_EQ(g.OutDegree(a), 1);
  EXPECT_EQ(g.InDegree(c), 1);
}

TEST(GraphTest, RemoveNodeIsIdempotent) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  EXPECT_TRUE(g.RemoveNode(a).ok());
  EXPECT_TRUE(g.RemoveNode(a).ok());
  EXPECT_EQ(g.num_nodes(), 0);
}

TEST(GraphTest, RemoveNodeOutOfRangeFails) {
  ProbabilisticEntityGraph g;
  EXPECT_FALSE(g.RemoveNode(5).ok());
  EXPECT_FALSE(g.RemoveNode(-1).ok());
}

TEST(GraphTest, RemoveEdgeUpdatesDegrees) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  EdgeId e = g.AddEdge(a, b, 0.5).value();
  g.RemoveEdge(e);
  EXPECT_FALSE(g.IsValidEdge(e));
  EXPECT_EQ(g.OutDegree(a), 0);
  EXPECT_EQ(g.InDegree(b), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphTest, SetProbsValidateAndClamp) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(0.5);
  NodeId b = g.AddNode(0.5);
  EdgeId e = g.AddEdge(a, b, 0.5).value();
  EXPECT_TRUE(g.SetNodeProb(a, 2.0).ok());
  EXPECT_DOUBLE_EQ(g.node(a).p, 1.0);
  EXPECT_TRUE(g.SetEdgeProb(e, -1.0).ok());
  EXPECT_DOUBLE_EQ(g.edge(e).q, 0.0);
  EXPECT_FALSE(g.SetNodeProb(42, 0.5).ok());
  EXPECT_FALSE(g.SetEdgeProb(42, 0.5).ok());
}

TEST(GraphTest, AliveNodesSkipsTombstones) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  NodeId c = g.AddNode(1.0);
  g.RemoveNode(b);
  EXPECT_EQ(g.AliveNodes(), (std::vector<NodeId>{a, c}));
}

TEST(GraphTest, ForEachOutEdgeSkipsDeadEdges) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0);
  NodeId b = g.AddNode(1.0);
  NodeId c = g.AddNode(1.0);
  EdgeId e1 = g.AddEdge(a, b, 0.5).value();
  g.AddEdge(a, c, 0.5).value();
  g.RemoveEdge(e1);
  int count = 0;
  g.ForEachOutEdge(a, [&](EdgeId e) {
    ++count;
    EXPECT_EQ(g.edge(e).to, c);
  });
  EXPECT_EQ(count, 1);
}

TEST(GraphTest, UndoScopeRevertsJournaledMutationsExactly) {
  ProbabilisticEntityGraph g;
  NodeId a = g.AddNode(1.0), b = g.AddNode(1.0), c = g.AddNode(1.0);
  EdgeId ab = g.AddEdge(a, b, 0.5).value();
  EdgeId bc = g.AddEdge(b, c, 0.25).value();
  {
    ProbabilisticEntityGraph::UndoScope outer(g);
    ASSERT_TRUE(g.SetEdgeProb(ab, 1.0).ok());
    ASSERT_TRUE(g.RemoveNode(b).ok());
    {
      ProbabilisticEntityGraph::UndoScope inner(g);
      EXPECT_EQ(g.AddEdge(a, c, 0.125).value(), 2);
      ProbabilisticEntityGraph copy = g;  // Copies never carry the journal.
      ASSERT_TRUE(copy.RemoveEdge(2).ok());
    }
    // The inner scope reverted only its own edge; the outer state stands.
    EXPECT_EQ(g.edge_capacity(), 2);
    EXPECT_FALSE(g.IsValidNode(b));
    EXPECT_EQ(g.edge(ab).q, 1.0);
    EXPECT_EQ(g.AddEdge(a, c, 0.75).value(), 2);  // The id is reused.
  }
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge_capacity(), 2);
  EXPECT_EQ(g.edge(ab).q, 0.5);
  EXPECT_TRUE(g.IsValidEdge(bc));
  EXPECT_EQ(g.OutEdges(a), std::vector<EdgeId>{ab});
  EXPECT_EQ(g.InEdges(c), std::vector<EdgeId>{bc});
  EXPECT_EQ(g.OutDegree(b), 1);
  EXPECT_EQ(g.InDegree(b), 1);
  static_assert(std::is_nothrow_move_constructible_v<ProbabilisticEntityGraph>);
}

}  // namespace
}  // namespace biorank
