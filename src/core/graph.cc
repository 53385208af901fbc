#include "core/graph.h"

#include <algorithm>

namespace biorank {

namespace {

double ClampProb(double p) { return std::min(1.0, std::max(0.0, p)); }

}  // namespace

NodeId ProbabilisticEntityGraph::AddNode(double p, std::string label,
                                         std::string entity_set) {
  NodeId id = node_capacity();
  nodes_.push_back(GraphNode{ClampProb(p), std::move(label),
                             std::move(entity_set), /*alive=*/true});
  out_.emplace_back();
  in_.emplace_back();
  out_degree_.push_back(0);
  in_degree_.push_back(0);
  ++num_alive_nodes_;
  return id;
}

Result<EdgeId> ProbabilisticEntityGraph::AddEdge(NodeId from, NodeId to,
                                                 double q) {
  if (!IsValidNode(from)) {
    return Status::InvalidArgument("AddEdge: invalid from node " +
                                   std::to_string(from));
  }
  if (!IsValidNode(to)) {
    return Status::InvalidArgument("AddEdge: invalid to node " +
                                   std::to_string(to));
  }
  EdgeId id = edge_capacity();
  edges_.push_back(GraphEdge{from, to, ClampProb(q), /*alive=*/true});
  out_[from].push_back(id);
  in_[to].push_back(id);
  ++out_degree_[from];
  ++in_degree_[to];
  ++num_alive_edges_;
  Journal(GraphUndoRecord::kEdgeAdded, id);
  return id;
}

Status ProbabilisticEntityGraph::RemoveNode(NodeId id) {
  if (id < 0 || id >= node_capacity()) {
    return Status::OutOfRange("RemoveNode: id " + std::to_string(id));
  }
  if (!nodes_[id].alive) return Status::OK();
  for (EdgeId e : out_[id]) RemoveEdge(e);
  for (EdgeId e : in_[id]) RemoveEdge(e);
  nodes_[id].alive = false;
  --num_alive_nodes_;
  Journal(GraphUndoRecord::kNodeRemoved, id);
  return Status::OK();
}

Status ProbabilisticEntityGraph::RemoveEdge(EdgeId id) {
  if (id < 0 || id >= edge_capacity()) {
    return Status::OutOfRange("RemoveEdge: id " + std::to_string(id));
  }
  GraphEdge& edge = edges_[id];
  if (!edge.alive) return Status::OK();
  edge.alive = false;
  --out_degree_[edge.from];
  --in_degree_[edge.to];
  --num_alive_edges_;
  Journal(GraphUndoRecord::kEdgeRemoved, id);
  return Status::OK();
}

ProbabilisticEntityGraph::UndoScope::UndoScope(ProbabilisticEntityGraph& graph)
    : graph_(graph) {
  if (graph_.trail_.records == nullptr) graph_.trail_.records = &records_;
  mark_ = graph_.trail_.records->size();
}

ProbabilisticEntityGraph::UndoScope::~UndoScope() {
  graph_.Undo(mark_);
  if (graph_.trail_.records == &records_) graph_.trail_.records = nullptr;
}

void ProbabilisticEntityGraph::Undo(size_t mark) {
  std::vector<GraphUndoRecord>& records = *trail_.records;
  for (; records.size() > mark; records.pop_back()) {
    const GraphUndoRecord& record = records.back();
    if (record.kind == GraphUndoRecord::kEdgeProb) {
      edges_[record.id].q = record.old_q;
    } else if (record.kind == GraphUndoRecord::kNodeRemoved) {
      nodes_[record.id].alive = true;
      ++num_alive_nodes_;
    } else {
      // An added edge is the newest id and the tail of both adjacency
      // lists, so popping restores ids and adjacency order exactly.
      GraphEdge& edge = edges_[record.id];
      const int delta = record.kind == GraphUndoRecord::kEdgeAdded ? -1 : 1;
      out_degree_[edge.from] += delta;
      in_degree_[edge.to] += delta;
      num_alive_edges_ += delta;
      if (delta > 0) {
        edge.alive = true;
      } else {
        out_[edge.from].pop_back();
        in_[edge.to].pop_back();
        edges_.pop_back();
      }
    }
  }
}

Status ProbabilisticEntityGraph::SetNodeProb(NodeId id, double p) {
  if (!IsValidNode(id)) {
    return Status::OutOfRange("SetNodeProb: id " + std::to_string(id));
  }
  nodes_[id].p = ClampProb(p);
  return Status::OK();
}

Status ProbabilisticEntityGraph::SetEdgeProb(EdgeId id, double q) {
  if (!IsValidEdge(id)) {
    return Status::OutOfRange("SetEdgeProb: id " + std::to_string(id));
  }
  Journal(GraphUndoRecord::kEdgeProb, id, edges_[id].q);
  edges_[id].q = ClampProb(q);
  return Status::OK();
}

std::vector<EdgeId> ProbabilisticEntityGraph::OutEdges(NodeId id) const {
  std::vector<EdgeId> result;
  for (EdgeId e : out_[id]) {
    if (edges_[e].alive) result.push_back(e);
  }
  return result;
}

std::vector<EdgeId> ProbabilisticEntityGraph::InEdges(NodeId id) const {
  std::vector<EdgeId> result;
  for (EdgeId e : in_[id]) {
    if (edges_[e].alive) result.push_back(e);
  }
  return result;
}

std::vector<NodeId> ProbabilisticEntityGraph::AliveNodes() const {
  std::vector<NodeId> result;
  result.reserve(num_alive_nodes_);
  for (NodeId i = 0; i < node_capacity(); ++i) {
    if (nodes_[i].alive) result.push_back(i);
  }
  return result;
}

std::vector<EdgeId> ProbabilisticEntityGraph::AliveEdges() const {
  std::vector<EdgeId> result;
  result.reserve(num_alive_edges_);
  for (EdgeId i = 0; i < edge_capacity(); ++i) {
    if (edges_[i].alive) result.push_back(i);
  }
  return result;
}

}  // namespace biorank
