#include "core/reduction.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/graph_algo.h"
#include "core/reify.h"
#include "testing/random_graphs.h"

namespace biorank {
namespace {

TEST(ReductionTest, SerialCollapseMultipliesProbabilities) {
  QueryGraphBuilder b;
  NodeId mid = b.Node(0.5, "mid");
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), mid, 0.8);
  b.Edge(mid, t, 0.9);
  QueryGraph g = std::move(b).Build({t});
  ReductionStats stats = ReduceQueryGraph(g);
  EXPECT_EQ(stats.serial_collapses, 1);
  EXPECT_EQ(g.graph.num_nodes(), 2);
  EXPECT_EQ(g.graph.num_edges(), 1);
  std::vector<EdgeId> in = g.graph.InEdges(t);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_NEAR(g.graph.edge(in[0]).q, 0.8 * 0.5 * 0.9, 1e-12);
}

TEST(ReductionTest, ParallelMergeUsesInclusionExclusion) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.5);
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  ReductionStats stats = ReduceQueryGraph(g);
  EXPECT_EQ(stats.parallel_merges, 1);
  EXPECT_EQ(g.graph.num_edges(), 1);
  std::vector<EdgeId> in = g.graph.InEdges(t);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_NEAR(g.graph.edge(in[0]).q, 0.75, 1e-12);
}

TEST(ReductionTest, ParallelMergeFoldsInAdjacencyOrder) {
  // 1 - prod(1 - q) rounds differently depending on which factor is
  // folded last; for these q all three choices give different bits.
  // Canonical keys (and every cache entry persisted under them) were
  // recorded with the fold in adjacency order, which must hold even with
  // another target's edge interleaved.
  const double q[] = {0.15, 0.45, 0.05};
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  NodeId u = b.Node(1.0, "u");
  b.Edge(b.Source(), t, q[0]);
  b.Edge(b.Source(), u, 0.5);
  b.Edge(b.Source(), t, q[1]);
  b.Edge(b.Source(), t, q[2]);
  QueryGraph g = std::move(b).Build({t, u});
  ReductionStats stats = ReduceQueryGraph(g);
  EXPECT_EQ(stats.parallel_merges, 2);
  std::vector<EdgeId> in = g.graph.InEdges(t);
  ASSERT_EQ(in.size(), 1u);
  const double in_order = 1.0 - (1.0 - q[0]) * (1.0 - q[1]) * (1.0 - q[2]);
  const double middle_last = 1.0 - (1.0 - q[0]) * (1.0 - q[2]) * (1.0 - q[1]);
  const double first_last = 1.0 - (1.0 - q[2]) * (1.0 - q[1]) * (1.0 - q[0]);
  ASSERT_NE(in_order, middle_last);
  ASSERT_NE(in_order, first_last);
  EXPECT_EQ(g.graph.edge(in[0]).q, in_order);
}

TEST(ReductionTest, FanOutNodeDoesNotCollapse) {
  // x has one in-edge but two out-edges: not a serial node.
  QueryGraphBuilder b;
  NodeId x = b.Node(0.9, "x");
  NodeId t1 = b.Node(1.0, "t1");
  NodeId t2 = b.Node(1.0, "t2");
  b.Edge(b.Source(), x, 0.5);
  b.Edge(x, t1, 0.6);
  b.Edge(x, t2, 0.7);
  QueryGraph g = std::move(b).Build({t1, t2});
  ReductionStats stats = ReduceQueryGraph(g);
  EXPECT_EQ(stats.serial_collapses, 0);
  EXPECT_TRUE(g.graph.IsValidNode(x));
  EXPECT_EQ(g.graph.num_edges(), 3);
}

TEST(ReductionTest, SinkDeletionCascades) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  NodeId dead1 = b.Node(1.0, "dead1");
  NodeId dead2 = b.Node(1.0, "dead2");
  b.Edge(b.Source(), t, 0.5);
  b.Edge(b.Source(), dead1, 0.5);
  b.Edge(dead1, dead2, 0.5);  // dead2 is a sink; removing it makes dead1 one.
  QueryGraph g = std::move(b).Build({t});
  ReductionOptions options;
  options.collapse_serial = false;  // Isolate the sink rule's cascade.
  ReductionStats stats = ReduceQueryGraph(g, options);
  EXPECT_EQ(stats.sink_deletions, 2);
  EXPECT_EQ(g.graph.num_nodes(), 2);
}

TEST(ReductionTest, AnswerSinkIsProtected) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  ReduceQueryGraph(g);
  EXPECT_TRUE(g.graph.IsValidNode(t));
}

TEST(ReductionTest, OrphanDeletion) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  NodeId orphan = b.Node(1.0, "orphan");
  b.Edge(b.Source(), t, 0.5);
  b.Edge(orphan, t, 0.5);  // orphan has no in-edges: unreachable.
  QueryGraph g = std::move(b).Build({t});
  ReductionStats stats = ReduceQueryGraph(g);
  EXPECT_GE(stats.orphan_deletions, 1);
  EXPECT_FALSE(g.graph.IsValidNode(orphan));
}

TEST(ReductionTest, OrphanDeletionCanBeDisabled) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  NodeId orphan = b.Node(1.0, "orphan");
  b.Edge(b.Source(), t, 0.5);
  b.Edge(orphan, t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  ReductionOptions options;
  options.delete_orphans = false;
  ReduceQueryGraph(g, options);
  EXPECT_TRUE(g.graph.IsValidNode(orphan));
}

TEST(ReductionTest, SelfLoopRemoved) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.5);
  b.Edge(t, t, 0.9);
  QueryGraph g = std::move(b).Build({t});
  ReductionStats stats = ReduceQueryGraph(g);
  EXPECT_EQ(stats.self_loop_deletions, 1);
  EXPECT_EQ(g.graph.num_edges(), 1);
}

TEST(ReductionTest, SerialThenParallelFullyReducesDiamond) {
  // s -> a -> t and s -> b -> t: serial collapses then parallel merge
  // leave a single edge; reliability reads off in closed form.
  QueryGraphBuilder b;
  NodeId a = b.Node(0.9, "a");
  NodeId bb = b.Node(0.8, "b");
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), a, 0.7);
  b.Edge(a, t, 0.6);
  b.Edge(b.Source(), bb, 0.5);
  b.Edge(bb, t, 0.4);
  QueryGraph g = std::move(b).Build({t});
  ReduceQueryGraph(g);
  EXPECT_EQ(g.graph.num_nodes(), 2);
  EXPECT_EQ(g.graph.num_edges(), 1);
  double path_a = 0.7 * 0.9 * 0.6;
  double path_b = 0.5 * 0.8 * 0.4;
  double expected = 1.0 - (1.0 - path_a) * (1.0 - path_b);
  std::vector<EdgeId> in = g.graph.InEdges(t);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_NEAR(g.graph.edge(in[0]).q, expected, 1e-12);
}

TEST(ReductionTest, WheatstoneBridgeIsIrreducible) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  ReductionStats stats = ReduceQueryGraph(g);
  // The paper: reductions "get stuck on the Wheatstone Bridge graph".
  EXPECT_EQ(stats.serial_collapses, 0);
  EXPECT_EQ(stats.parallel_merges, 0);
  EXPECT_EQ(g.graph.num_nodes(), 4);
  EXPECT_EQ(g.graph.num_edges(), 5);
}

TEST(ReductionTest, Fig4aReducesToSingleEdge) {
  QueryGraph g = MakeFig4aSerialParallel();
  ReduceQueryGraph(g);
  EXPECT_EQ(g.graph.num_nodes(), 2);
  EXPECT_EQ(g.graph.num_edges(), 1);
  std::vector<EdgeId> in = g.graph.InEdges(g.answers[0]);
  ASSERT_EQ(in.size(), 1u);
  // Both paths have probability 0.5 each... but they share the 0.5 edge:
  // serial collapse folds each branch to q=1, parallel merge gives 1, and
  // the final serial collapse with the shared 0.5 edge yields 0.5.
  EXPECT_NEAR(g.graph.edge(in[0]).q, 0.5, 1e-12);
}

TEST(ReductionTest, IdempotentOnFixpoint) {
  QueryGraph g = MakeFig4aSerialParallel();
  ReduceQueryGraph(g);
  ReductionStats second = ReduceQueryGraph(g);
  EXPECT_EQ(second.serial_collapses, 0);
  EXPECT_EQ(second.parallel_merges, 0);
  EXPECT_EQ(second.sink_deletions, 0);
  EXPECT_EQ(second.nodes_before, second.nodes_after);
}

TEST(ReductionTest, StatsRemovedFraction) {
  QueryGraph g = MakeFig4aSerialParallel();
  ReductionStats stats = ReduceQueryGraph(g);
  // 10 elements before (5 nodes + 5 edges), 3 after (2 nodes + 1 edge).
  EXPECT_NEAR(stats.RemovedFraction(), 0.7, 1e-12);
}

TEST(ReductionTest, SerialCollapseSkipsProtectedNodes) {
  // s -> t1 -> t2 where t1 is itself an answer: t1 must survive.
  QueryGraphBuilder b;
  NodeId t1 = b.Node(0.9, "t1");
  NodeId t2 = b.Node(0.8, "t2");
  b.Edge(b.Source(), t1, 0.5);
  b.Edge(t1, t2, 0.5);
  QueryGraph g = std::move(b).Build({t1, t2});
  ReduceQueryGraph(g);
  EXPECT_TRUE(g.graph.IsValidNode(t1));
  EXPECT_TRUE(g.graph.IsValidNode(t2));
  EXPECT_EQ(g.graph.num_edges(), 2);
}

TEST(ReductionTest, CollapseToExistingParallelEdgeThenMerge) {
  // s -> t directly (0.3) and s -> mid -> t: the serial collapse creates a
  // parallel edge that must merge with the direct one.
  QueryGraphBuilder b;
  NodeId mid = b.Node(1.0, "mid");
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.3);
  b.Edge(b.Source(), mid, 0.5);
  b.Edge(mid, t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  ReduceQueryGraph(g);
  EXPECT_EQ(g.graph.num_edges(), 1);
  std::vector<EdgeId> in = g.graph.InEdges(t);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_NEAR(g.graph.edge(in[0]).q, 1.0 - 0.7 * 0.75, 1e-12);
}

/// The seeded-sweep property corpus: each graph of the restriction corpus
/// and the ledger-shape DAGs with all its answers protected, and each of
/// its answers' restricted, reified subgraphs (the factoring kernel's
/// input), all reduced to a fixpoint.
std::vector<QueryGraph> ReducedSweepCorpus() {
  std::vector<QueryGraph> graphs = testing::MakeRestrictionCorpus();
  for (QueryGraph& dag : testing::MakeLedgerDagCorpus()) {
    graphs.push_back(std::move(dag));
  }
  std::vector<QueryGraph> corpus;
  for (const QueryGraph& graph : graphs) {
    corpus.push_back(graph);
    const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
    for (NodeId target : graph.answers) {
      corpus.push_back(
          ReifyNodeFailures(RestrictToTarget(csr, graph.source, target))
              .query_graph);
    }
  }
  for (QueryGraph& graph : corpus) ReduceQueryGraph(graph);
  return corpus;
}

/// Every ReductionStats counter.
std::array<int, 10> Counters(const ReductionStats& s) {
  return {s.nodes_before,     s.edges_before,     s.nodes_after,
          s.edges_after,      s.sink_deletions,   s.orphan_deletions,
          s.serial_collapses, s.parallel_merges,  s.self_loop_deletions,
          s.passes};
}

TEST(ReductionTest, CertainEdgeLeavesAFixpointReduced) {
  // No rule reads a probability, so factoring's present branch (an edge
  // made certain) needs no reduction: a full one finds nothing to do.
  int edges = 0;
  for (const QueryGraph& graph : ReducedSweepCorpus()) {
    for (EdgeId e : graph.graph.AliveEdges()) {
      QueryGraph certain = graph;
      certain.graph.SetEdgeProb(e, 1.0);
      const ReductionStats stats = ReduceQueryGraph(certain);
      EXPECT_EQ(stats.sink_deletions + stats.orphan_deletions +
                    stats.serial_collapses + stats.parallel_merges +
                    stats.self_loop_deletions + stats.passes,
                0)
          << "edge " << e;
      ++edges;
    }
  }
  EXPECT_GT(edges, 10000);
}

TEST(ReductionTest, SeededSweepAfterEdgeRemovalMatchesFullReduction) {
  // Factoring's absent branch removes one edge from a fixpoint and sweeps
  // only its endpoints; that must leave exactly the graph, down to edge
  // ids, adjacency order and probability bits, and the stats of a full
  // reduction. One scratch serves every sweep, as in the kernel.
  ReductionScratch scratch;
  int edges = 0;
  int reducing = 0;
  for (const QueryGraph& graph : ReducedSweepCorpus()) {
    for (EdgeId e : graph.graph.AliveEdges()) {
      QueryGraph full = graph;
      QueryGraph seeded = graph;
      full.graph.RemoveEdge(e);
      seeded.graph.RemoveEdge(e);
      const ReductionStats full_stats = ReduceQueryGraph(full);
      const ReductionStats seeded_stats =
          ReduceAfterEdgeRemoval(seeded, e, scratch);
      EXPECT_EQ(testing::GraphDifference(full, seeded), "") << "edge " << e;
      EXPECT_EQ(Counters(full_stats), Counters(seeded_stats)) << "edge " << e;
      ++edges;
      if (full_stats.passes > 0) ++reducing;
    }
  }
  EXPECT_GT(edges, 10000);
  EXPECT_GT(reducing, edges / 4);  // The sweep has real work to match.
}

}  // namespace
}  // namespace biorank
