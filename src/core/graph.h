// The probabilistic entity graph (Definition 2.1): nodes are data
// records present with probability p, directed edges are relationships
// that hold with probability q. Every layer above builds on this type.

#ifndef BIORANK_CORE_GRAPH_H_
#define BIORANK_CORE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace biorank {

/// Index of a node inside a ProbabilisticEntityGraph. Stable for the
/// lifetime of the graph (removal tombstones instead of renumbering).
using NodeId = int32_t;

/// Index of an edge inside a ProbabilisticEntityGraph. Stable likewise.
using EdgeId = int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// A node of the probabilistic entity graph (Definition 2.1): one data
/// record from one entity set, present with probability `p`.
struct GraphNode {
  double p = 1.0;         ///< Presence probability, p(i) = ps(i) * pr(i).
  std::string label;      ///< Display label, e.g. "AmiGO:GO:0008281".
  std::string entity_set; ///< Mediated-schema entity set, e.g. "AmiGO".
  bool alive = true;      ///< False once removed (tombstone).
};

/// A directed edge of the probabilistic entity graph: one relationship
/// record, present with probability `q`.
struct GraphEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double q = 1.0;      ///< Presence probability, q(i,j) = qs(i,j) * qr(i,j).
  bool alive = true;   ///< False once removed (tombstone).
};

/// One journaled graph mutation (see ProbabilisticEntityGraph::UndoScope).
struct GraphUndoRecord {
  enum Kind : uint8_t { kEdgeAdded, kEdgeRemoved, kNodeRemoved, kEdgeProb };
  Kind kind;
  int32_t id;     ///< The edge or node the mutation touched.
  double old_q;   ///< kEdgeProb: the probability Undo restores.
};

/// Labeled directed graph with probability labels on nodes and edges —
/// the paper's probabilistic entity graph G = (N, E, p, q) (Definition 2.1).
///
/// Mutations used by the reduction rules of Section 3.1 (removing nodes and
/// edges, adding bypass edges) are supported via tombstones;
/// BuildCsrSnapshot (core/csr_snapshot.h) and RestrictToTarget
/// (core/graph_algo.h) renumber densely when needed.
/// Parallel edges are allowed (serial collapses create them; the
/// parallel-merge rule removes them again).
class ProbabilisticEntityGraph {
 public:
  ProbabilisticEntityGraph() = default;

  /// Adds a node with presence probability `p` (clamped to [0,1]) and
  /// optional labels. Returns its id.
  NodeId AddNode(double p, std::string label = "", std::string entity_set = "");

  /// Adds a directed edge with presence probability `q` (clamped to [0,1]).
  /// Returns an error if either endpoint is invalid or dead.
  Result<EdgeId> AddEdge(NodeId from, NodeId to, double q);

  /// Marks a node and all its incident edges dead. No-op if already dead.
  Status RemoveNode(NodeId id);

  /// Marks an edge dead. No-op if already dead.
  Status RemoveEdge(EdgeId id);

  /// Total ids ever allocated (including dead); valid ids are [0, size).
  NodeId node_capacity() const { return static_cast<NodeId>(nodes_.size()); }
  EdgeId edge_capacity() const { return static_cast<EdgeId>(edges_.size()); }

  /// Counts of alive nodes / edges.
  int num_nodes() const { return num_alive_nodes_; }
  int num_edges() const { return num_alive_edges_; }

  bool IsValidNode(NodeId id) const {
    return id >= 0 && id < node_capacity() && nodes_[id].alive;
  }
  bool IsValidEdge(EdgeId id) const {
    return id >= 0 && id < edge_capacity() && edges_[id].alive;
  }

  const GraphNode& node(NodeId id) const { return nodes_[id]; }
  const GraphEdge& edge(EdgeId id) const { return edges_[id]; }

  /// Sets a node's presence probability (clamped to [0,1]).
  Status SetNodeProb(NodeId id, double p);

  /// Sets an edge's presence probability (clamped to [0,1]).
  Status SetEdgeProb(EdgeId id, double q);

  /// Ids of alive outgoing / incoming edges of `id` (dead edges filtered).
  std::vector<EdgeId> OutEdges(NodeId id) const;
  std::vector<EdgeId> InEdges(NodeId id) const;

  /// Alive out-degree / in-degree (counting parallel edges), O(1).
  int OutDegree(NodeId id) const { return out_degree_[id]; }
  int InDegree(NodeId id) const { return in_degree_[id]; }

  /// All alive node ids, ascending.
  std::vector<NodeId> AliveNodes() const;

  /// All alive edge ids, ascending.
  std::vector<EdgeId> AliveEdges() const;

  /// Journals AddEdge, RemoveEdge, RemoveNode and SetEdgeProb on `graph`
  /// while alive, and on destruction reverts them newest first to the
  /// exact earlier state: edge ids, adjacency order and probability bits.
  /// Scopes nest LIFO; the outermost owns the journal, which copies of the
  /// graph never carry. AddNode and SetNodeProb are not journaled.
  class UndoScope {
   public:
    explicit UndoScope(ProbabilisticEntityGraph& graph);
    ~UndoScope();
    UndoScope(const UndoScope&) = delete;
    UndoScope& operator=(const UndoScope&) = delete;

   private:
    ProbabilisticEntityGraph& graph_;
    std::vector<GraphUndoRecord> records_;  ///< The journal, if outermost.
    size_t mark_ = 0;  ///< Journal length at construction.
  };

  /// Visits each alive out-edge id of `id`.
  template <typename Fn>
  void ForEachOutEdge(NodeId id, Fn&& fn) const {
    for (EdgeId e : out_[id]) {
      if (edges_[e].alive) fn(e);
    }
  }

  /// Visits each alive in-edge id of `id`.
  template <typename Fn>
  void ForEachInEdge(NodeId id, Fn&& fn) const {
    for (EdgeId e : in_[id]) {
      if (edges_[e].alive) fn(e);
    }
  }

 private:
  /// The outermost UndoScope's journal. A copy starts without one and an
  /// assigned graph keeps its own; noexcept copies keep graph moves noexcept.
  struct Trail {
    std::vector<GraphUndoRecord>* records = nullptr;
    Trail() = default;
    Trail(const Trail&) noexcept {}
    Trail& operator=(const Trail&) noexcept { return *this; }
  };

  void Journal(GraphUndoRecord::Kind kind, int32_t id, double old_q = 0.0) {
    if (trail_.records != nullptr) trail_.records->push_back({kind, id, old_q});
  }
  /// Reverts the journal's records past `mark`, newest first.
  void Undo(size_t mark);

  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
  std::vector<int> out_degree_;  ///< Alive out-edges per node.
  std::vector<int> in_degree_;   ///< Alive in-edges per node.
  int num_alive_nodes_ = 0;
  int num_alive_edges_ = 0;
  Trail trail_;
};

/// Read-only forward CSR (compressed sparse row) view of the alive part of
/// a graph: the MC pointer reference until ROADMAP item 4. Only
/// EstimateReliabilityMc's Backend::kPointerView walks it; every other
/// read-side consumer runs on BuildCsrSnapshot (core/csr_snapshot.h).
///
/// Dead nodes keep their ids (p forced to 0, no edges) so score vectors
/// index directly by the original NodeId.
struct CompactGraphView {
  /// Node presence probabilities, indexed by NodeId; 0 for dead nodes.
  std::vector<double> node_p;
  /// CSR offsets into `edge_to` / `edge_q`, size node_capacity + 1.
  std::vector<int32_t> out_offset;
  std::vector<NodeId> edge_to;     ///< Flattened out-edge targets.
  std::vector<double> edge_q;      ///< Edge probabilities, parallel to edge_to.

  int node_count() const { return static_cast<int>(node_p.size()); }

  /// Builds the view from the alive part of `graph`.
  static CompactGraphView FromGraph(const ProbabilisticEntityGraph& graph);
};

}  // namespace biorank

#endif  // BIORANK_CORE_GRAPH_H_
