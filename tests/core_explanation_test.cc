#include "core/explanation.h"

#include <gtest/gtest.h>

#include "core/query_graph.h"
#include "testing/random_graphs.h"
#include "util/rng.h"

namespace biorank {
namespace {

TEST(ExplanationTest, SingleEdgePath) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.8, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  Result<std::vector<EvidencePath>> paths = ExplainAnswer(g, t);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths.value().size(), 1u);
  const EvidencePath& path = paths.value()[0];
  EXPECT_EQ(path.length(), 1);
  EXPECT_EQ(path.nodes.front(), g.source);
  EXPECT_EQ(path.nodes.back(), t);
  EXPECT_NEAR(path.probability, 0.4, 1e-12);  // 1 * 0.5 * 0.8.
}

TEST(ExplanationTest, PrefersStrongerPath) {
  QueryGraphBuilder b;
  NodeId weak = b.Node(1.0, "weak");
  NodeId strong = b.Node(1.0, "strong");
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), weak, 0.2);
  b.Edge(weak, t, 0.2);
  b.Edge(b.Source(), strong, 0.9);
  b.Edge(strong, t, 0.9);
  QueryGraph g = std::move(b).Build({t});
  Result<std::vector<EvidencePath>> paths = ExplainAnswer(g, t);
  ASSERT_TRUE(paths.ok());
  ASSERT_GE(paths.value().size(), 2u);
  EXPECT_EQ(paths.value()[0].nodes[1], strong);
  EXPECT_NEAR(paths.value()[0].probability, 0.81, 1e-12);
  EXPECT_EQ(paths.value()[1].nodes[1], weak);
  EXPECT_NEAR(paths.value()[1].probability, 0.04, 1e-12);
}

TEST(ExplanationTest, PathsAreSortedDescending) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  ExplanationOptions options;
  options.max_paths = 10;
  Result<std::vector<EvidencePath>> paths =
      ExplainAnswer(g, g.answers[0], options);
  ASSERT_TRUE(paths.ok());
  // The bridge has exactly 3 loopless s->u paths.
  EXPECT_EQ(paths.value().size(), 3u);
  for (size_t i = 1; i < paths.value().size(); ++i) {
    EXPECT_GE(paths.value()[i - 1].probability,
              paths.value()[i].probability);
  }
  // Two 2-edge paths at 0.25, one 3-edge path at 0.125.
  EXPECT_NEAR(paths.value()[0].probability, 0.25, 1e-12);
  EXPECT_NEAR(paths.value()[1].probability, 0.25, 1e-12);
  EXPECT_NEAR(paths.value()[2].probability, 0.125, 1e-12);
}

TEST(ExplanationTest, PathsAreLoopless) {
  QueryGraphBuilder b;
  NodeId a = b.Node(1.0, "a");
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), a, 0.5);
  b.Edge(a, t, 0.5);
  b.Edge(t, a, 0.9);  // Cycle.
  QueryGraph g = std::move(b).Build({t});
  ExplanationOptions options;
  options.max_paths = 10;
  Result<std::vector<EvidencePath>> paths =
      ExplainAnswer(g, t, options);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths.value().size(), 1u);  // Only s->a->t is loopless.
  EXPECT_EQ(paths.value()[0].length(), 2);
}

TEST(ExplanationTest, UnreachableTargetHasNoPaths) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  QueryGraph g = std::move(b).Build({t});
  Result<std::vector<EvidencePath>> paths = ExplainAnswer(g, t);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths.value().empty());
}

TEST(ExplanationTest, RejectsBadArguments) {
  QueryGraph g = MakeFig4aSerialParallel();
  EXPECT_FALSE(ExplainAnswer(g, 999).ok());
  ExplanationOptions options;
  options.max_paths = 0;
  EXPECT_FALSE(ExplainAnswer(g, g.answers[0], options).ok());
}

TEST(ExplanationTest, ZeroProbabilityEdgesAreUnusable) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.0);
  QueryGraph g = std::move(b).Build({t});
  Result<std::vector<EvidencePath>> paths = ExplainAnswer(g, t);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths.value().empty());
}

TEST(ExplanationTest, FormatIncludesLabelsAndProbability) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.8, "GO:0000001");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  std::vector<EvidencePath> paths = ExplainAnswer(g, t).value();
  std::string text = FormatEvidencePath(g, paths[0]);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("GO:0000001"), std::string::npos);
  EXPECT_NE(text.find("q=0.5"), std::string::npos);
  EXPECT_NE(text.find("p=0.4"), std::string::npos);
}

TEST(ExplanationTest, KBestOnRandomDagsAreDistinctAndValid) {
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    testing::RandomDagOptions options;
    options.layers = 3;
    options.nodes_per_layer = 4;
    options.answers = 2;
    QueryGraph g = testing::MakeRandomLayeredDag(rng, options);
    ExplanationOptions explain;
    explain.max_paths = 6;
    Result<std::vector<EvidencePath>> paths =
        ExplainAnswer(g, g.answers[0], explain);
    ASSERT_TRUE(paths.ok());
    std::set<std::vector<EdgeId>> edge_sets;
    double previous = 2.0;
    for (const EvidencePath& path : paths.value()) {
      // Valid endpoints, connected, sorted, distinct.
      EXPECT_EQ(path.nodes.front(), g.source);
      EXPECT_EQ(path.nodes.back(), g.answers[0]);
      ASSERT_EQ(path.edges.size() + 1, path.nodes.size());
      for (size_t i = 0; i < path.edges.size(); ++i) {
        const GraphEdge& edge = g.graph.edge(path.edges[i]);
        EXPECT_EQ(edge.from, path.nodes[i]);
        EXPECT_EQ(edge.to, path.nodes[i + 1]);
      }
      EXPECT_LE(path.probability, previous + 1e-12);
      previous = path.probability;
      EXPECT_TRUE(edge_sets.insert(path.edges).second);
    }
  }
}

}  // namespace
}  // namespace biorank
