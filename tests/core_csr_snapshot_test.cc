// Structural invariants of the flat CSR snapshot (core/csr_snapshot.h):
// offset monotonicity, degree accounting, id-mapping round trips,
// rebuild idempotence, and byte equality.

#include "core/csr_snapshot.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "testing/random_graphs.h"
#include "util/rng.h"

namespace biorank {
namespace {

/// (from, to, q-bits) triples of every alive edge, sorted — the
/// order-insensitive adjacency content of a graph or snapshot.
std::vector<std::tuple<NodeId, NodeId, double>> GraphEdgeMultiset(
    const ProbabilisticEntityGraph& graph) {
  std::vector<std::tuple<NodeId, NodeId, double>> edges;
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    edges.emplace_back(graph.edge(e).from, graph.edge(e).to, graph.edge(e).q);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<std::tuple<NodeId, NodeId, double>> CsrEdgeMultiset(
    const CsrSnapshot& csr) {
  std::vector<std::tuple<NodeId, NodeId, double>> edges;
  for (uint32_t d = 0; d < csr.num_nodes(); ++d) {
    for (uint32_t i = csr.out_offset[d]; i < csr.out_offset[d + 1]; ++i) {
      edges.emplace_back(csr.orig_id[d], csr.orig_id[csr.out_to[i]],
                         csr.out_q[i]);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Core invariants any well-formed snapshot must satisfy.
void CheckInvariants(const CsrSnapshot& csr) {
  const uint32_t n = csr.num_nodes();
  ASSERT_EQ(csr.node_p.size(), n);
  ASSERT_EQ(csr.orig_id.size(), n);
  ASSERT_EQ(csr.out_offset.size(), n + 1);
  ASSERT_EQ(csr.in_offset.size(), n + 1);
  EXPECT_EQ(csr.out_offset[0], 0u);
  EXPECT_EQ(csr.in_offset[0], 0u);
  for (uint32_t d = 0; d < n; ++d) {
    EXPECT_LE(csr.out_offset[d], csr.out_offset[d + 1]);
    EXPECT_LE(csr.in_offset[d], csr.in_offset[d + 1]);
  }
  EXPECT_EQ(csr.out_offset[n], csr.num_edges());
  EXPECT_EQ(csr.in_offset[n], csr.num_edges());
  EXPECT_EQ(csr.out_to.size(), csr.out_q.size());
  EXPECT_EQ(csr.in_from.size(), csr.in_q.size());
  EXPECT_EQ(csr.out_to.size(), csr.in_from.size());

  // Dense ids ascend by original id, and the two-way mapping closes.
  for (uint32_t d = 0; d < n; ++d) {
    if (d > 0) {
      EXPECT_LT(csr.orig_id[d - 1], csr.orig_id[d]);
    }
    ASSERT_LT(static_cast<size_t>(csr.orig_id[d]), csr.dense_id.size());
    EXPECT_EQ(csr.dense_id[static_cast<size_t>(csr.orig_id[d])], d);
  }
  size_t mapped = 0;
  for (uint32_t dense : csr.dense_id) {
    if (dense == kCsrInvalid) continue;
    ++mapped;
    ASSERT_LT(dense, n);
  }
  EXPECT_EQ(mapped, n);

  // Edge endpoints in range; in-degree totals match out-degree totals.
  for (uint32_t to : csr.out_to) ASSERT_LT(to, n);
  for (uint32_t from : csr.in_from) ASSERT_LT(from, n);
  std::vector<uint32_t> in_degree(n, 0);
  for (uint32_t to : csr.out_to) ++in_degree[to];
  for (uint32_t d = 0; d < n; ++d) {
    EXPECT_EQ(csr.in_offset[d + 1] - csr.in_offset[d], in_degree[d]);
  }
}

/// Rebuilds a pointer graph from a snapshot's adjacency (dense ids
/// become the new graph's node ids directly).
ProbabilisticEntityGraph GraphFromCsr(const CsrSnapshot& csr) {
  ProbabilisticEntityGraph graph;
  for (uint32_t d = 0; d < csr.num_nodes(); ++d) {
    graph.AddNode(csr.node_p[d]);
  }
  for (uint32_t d = 0; d < csr.num_nodes(); ++d) {
    for (uint32_t i = csr.out_offset[d]; i < csr.out_offset[d + 1]; ++i) {
      graph.AddEdge(static_cast<NodeId>(d),
                    static_cast<NodeId>(csr.out_to[i]), csr.out_q[i])
          .value();
    }
  }
  return graph;
}

TEST(CsrSnapshotTest, EmptyGraph) {
  ProbabilisticEntityGraph graph;
  CsrSnapshot csr = BuildCsrSnapshot(graph);
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_EQ(csr.orig_capacity(), 0);
  CheckInvariants(csr);
}

TEST(CsrSnapshotTest, SingleNode) {
  ProbabilisticEntityGraph graph;
  NodeId a = graph.AddNode(0.75);
  CsrSnapshot csr = BuildCsrSnapshot(graph);
  CheckInvariants(csr);
  ASSERT_EQ(csr.num_nodes(), 1u);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_EQ(csr.orig_id[0], a);
  EXPECT_EQ(csr.node_p[0], 0.75);
}

TEST(CsrSnapshotTest, SelfLoop) {
  ProbabilisticEntityGraph graph;
  NodeId a = graph.AddNode(1.0);
  graph.AddEdge(a, a, 0.5).value();
  CsrSnapshot csr = BuildCsrSnapshot(graph);
  CheckInvariants(csr);
  ASSERT_EQ(csr.num_edges(), 1u);
  EXPECT_EQ(csr.out_to[0], 0u);
  EXPECT_EQ(csr.in_from[0], 0u);
  EXPECT_EQ(csr.out_q[0], 0.5);
  EXPECT_EQ(csr.in_q[0], 0.5);
}

TEST(CsrSnapshotTest, ParallelEdgesKeepMultiplicityAndOrder) {
  ProbabilisticEntityGraph graph;
  NodeId a = graph.AddNode(1.0);
  NodeId b = graph.AddNode(0.9);
  graph.AddEdge(a, b, 0.3).value();
  graph.AddEdge(a, b, 0.7).value();
  graph.AddEdge(a, b, 0.1).value();
  CsrSnapshot csr = BuildCsrSnapshot(graph);
  CheckInvariants(csr);
  ASSERT_EQ(csr.num_edges(), 3u);
  // Segment order is ascending original EdgeId — insertion order here.
  EXPECT_EQ(csr.out_q[0], 0.3);
  EXPECT_EQ(csr.out_q[1], 0.7);
  EXPECT_EQ(csr.out_q[2], 0.1);
  EXPECT_EQ(csr.in_q[0], 0.3);
  EXPECT_EQ(csr.in_q[1], 0.7);
  EXPECT_EQ(csr.in_q[2], 0.1);
}

TEST(CsrSnapshotTest, TombstonesAreExcluded) {
  ProbabilisticEntityGraph graph;
  NodeId a = graph.AddNode(1.0);
  NodeId b = graph.AddNode(0.5);
  NodeId c = graph.AddNode(0.25);
  graph.AddEdge(a, b, 0.5).value();
  EdgeId dead = graph.AddEdge(a, c, 0.4).value();
  graph.AddEdge(b, c, 0.6).value();
  ASSERT_TRUE(graph.RemoveEdge(dead).ok());
  ASSERT_TRUE(graph.RemoveNode(b).ok());  // Also drops its edges.
  CsrSnapshot csr = BuildCsrSnapshot(graph);
  CheckInvariants(csr);
  ASSERT_EQ(csr.num_nodes(), 2u);
  EXPECT_EQ(csr.orig_id[0], a);
  EXPECT_EQ(csr.orig_id[1], c);
  EXPECT_EQ(csr.dense_id[static_cast<size_t>(b)], kCsrInvalid);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrSnapshotTest, RandomGraphsSatisfyInvariantsAndMatchAdjacency) {
  Rng rng(2026);
  for (int round = 0; round < 30; ++round) {
    testing::RandomDagOptions options;
    options.layers = 2 + round % 4;
    options.nodes_per_layer = 3 + round % 5;
    options.edge_density = 0.4 + 0.02 * (round % 10);
    QueryGraph query = testing::MakeRandomLayeredDag(rng, options);
    CsrSnapshot csr = BuildCsrSnapshot(query.graph);
    CheckInvariants(csr);
    EXPECT_EQ(CsrEdgeMultiset(csr), GraphEdgeMultiset(query.graph));
    EXPECT_EQ(csr.num_nodes(),
              static_cast<uint32_t>(query.graph.num_nodes()));
    EXPECT_EQ(csr.num_edges(),
              static_cast<uint32_t>(query.graph.num_edges()));
  }
}

TEST(CsrSnapshotTest, RoundTripIsIdempotent) {
  // CSR -> adjacency -> CSR reaches a fixpoint after one normalization:
  // rebuilding from the round-tripped graph must be byte-identical.
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    QueryGraph query = testing::MakeRandomDigraph(rng, 12 + round, 0.3, 3);
    CsrSnapshot first = BuildCsrSnapshot(query.graph);
    ProbabilisticEntityGraph rebuilt = GraphFromCsr(first);
    CsrSnapshot second = BuildCsrSnapshot(rebuilt);
    CsrSnapshot third = BuildCsrSnapshot(GraphFromCsr(second));
    EXPECT_TRUE(CsrBytesEqual(second, third));
    // And the adjacency content never drifts across the round trip.
    EXPECT_EQ(CsrEdgeMultiset(second), CsrEdgeMultiset(first));
  }
}

TEST(CsrSnapshotTest, CsrBytesEqualDetectsEveryArray) {
  ProbabilisticEntityGraph graph;
  NodeId a = graph.AddNode(1.0);
  NodeId b = graph.AddNode(0.5);
  graph.AddEdge(a, b, 0.5).value();
  CsrSnapshot base = BuildCsrSnapshot(graph);
  EXPECT_TRUE(CsrBytesEqual(base, base));

  CsrSnapshot changed = base;
  changed.node_p[1] = 0.5000000001;
  EXPECT_FALSE(CsrBytesEqual(base, changed));
  changed = base;
  changed.out_q[0] = 0.25;
  EXPECT_FALSE(CsrBytesEqual(base, changed));
  changed = base;
  changed.in_q[0] = 0.25;
  EXPECT_FALSE(CsrBytesEqual(base, changed));
  changed = base;
  changed.dense_id.push_back(kCsrInvalid);
  EXPECT_FALSE(CsrBytesEqual(base, changed));
}

TEST(CsrSnapshotTest, QuerySnapshotMapsTheSource) {
  Rng rng(5);
  QueryGraph query = testing::MakeRandomTree(rng, 3, 2, false);
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(query);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
  const CsrQuerySnapshot& qs = snapshot.value();
  ASSERT_NE(qs.source, kCsrInvalid);
  EXPECT_EQ(qs.csr.orig_id[qs.source], query.source);
  EXPECT_TRUE(CsrBytesEqual(qs.csr, BuildCsrSnapshot(query.graph)));
}

}  // namespace
}  // namespace biorank
