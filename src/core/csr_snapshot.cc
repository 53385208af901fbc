#include "core/csr_snapshot.h"

#include <cstring>

#include "util/checked_cast.h"

namespace biorank {

namespace {

/// Bitwise equality of two double arrays (memcmp: NaNs match themselves,
/// -0.0 differs from +0.0 — exactly the "byte-equal" contract).
bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitsEqual(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

CsrSnapshot BuildCsrSnapshot(const ProbabilisticEntityGraph& graph,
                             const std::vector<bool>* kept_mask) {
  CsrSnapshot csr;
  const NodeId capacity = graph.node_capacity();
  csr.dense_id.assign(static_cast<size_t>(capacity), kCsrInvalid);

  auto included = [&](NodeId id) {
    if (!graph.IsValidNode(id)) return false;
    if (kept_mask == nullptr) return true;
    return static_cast<size_t>(id) < kept_mask->size() &&
           (*kept_mask)[static_cast<size_t>(id)];
  };

  // Pass 1 — dense node ids in ascending original order (the ordering
  // contract the differential suite pins down).
  for (NodeId id = 0; id < capacity; ++id) {
    if (!included(id)) continue;
    csr.dense_id[static_cast<size_t>(id)] =
        CheckedUint32Cast(csr.orig_id.size(), "BuildCsrSnapshot node count");
    csr.orig_id.push_back(id);
    const GraphNode& node = graph.node(id);
    csr.node_p.push_back(node.p);
    csr.node_confidence.push_back(static_cast<float>(node.p));
    csr.node_kind.push_back(0);
  }
  const uint32_t n = csr.num_nodes();

  // Pass 2 — degree counts for both CSR directions.
  std::vector<uint32_t> out_degree(n, 0), in_degree(n, 0);
  uint32_t total = 0;
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    const uint32_t from = csr.dense_id[static_cast<size_t>(edge.from)];
    const uint32_t to = csr.dense_id[static_cast<size_t>(edge.to)];
    if (from == kCsrInvalid || to == kCsrInvalid) continue;
    ++out_degree[from];
    ++in_degree[to];
    total = CheckedUint32Cast(static_cast<uint64_t>(total) + 1,
                              "BuildCsrSnapshot edge count");
  }

  csr.out_offset.assign(n + 1, 0);
  csr.in_offset.assign(n + 1, 0);
  for (uint32_t d = 0; d < n; ++d) {
    csr.out_offset[d + 1] = csr.out_offset[d] + out_degree[d];
    csr.in_offset[d + 1] = csr.in_offset[d] + in_degree[d];
  }
  csr.out_to.assign(total, kCsrInvalid);
  csr.out_q.assign(total, 0.0);
  csr.in_from.assign(total, kCsrInvalid);
  csr.in_q.assign(total, 0.0);

  // Pass 3 — fill both directions in ascending EdgeId order, so every
  // node's edge segment enumerates exactly as the pointer graph's
  // ForEachOutEdge / ForEachInEdge (adjacency lists append on AddEdge).
  std::vector<uint32_t> out_cursor(csr.out_offset.begin(),
                                   csr.out_offset.end() - 1);
  std::vector<uint32_t> in_cursor(csr.in_offset.begin(),
                                  csr.in_offset.end() - 1);
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    const uint32_t from = csr.dense_id[static_cast<size_t>(edge.from)];
    const uint32_t to = csr.dense_id[static_cast<size_t>(edge.to)];
    if (from == kCsrInvalid || to == kCsrInvalid) continue;
    const uint32_t oc = out_cursor[from]++;
    csr.out_to[oc] = to;
    csr.out_q[oc] = edge.q;
    const uint32_t ic = in_cursor[to]++;
    csr.in_from[ic] = from;
    csr.in_q[ic] = edge.q;
  }
  return csr;
}

bool CsrBytesEqual(const CsrSnapshot& a, const CsrSnapshot& b) {
  return BitsEqual(a.node_p, b.node_p) &&
         BitsEqual(a.node_confidence, b.node_confidence) &&
         a.node_kind == b.node_kind && a.orig_id == b.orig_id &&
         a.dense_id == b.dense_id && a.out_offset == b.out_offset &&
         a.out_to == b.out_to && BitsEqual(a.out_q, b.out_q) &&
         a.in_offset == b.in_offset && a.in_from == b.in_from &&
         BitsEqual(a.in_q, b.in_q);
}

Result<CsrQuerySnapshot> BuildCsrQuerySnapshot(const QueryGraph& query_graph) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  CsrQuerySnapshot qs;
  qs.csr = BuildCsrSnapshot(query_graph.graph);
  qs.source = qs.csr.dense_id[static_cast<size_t>(query_graph.source)];
  qs.csr.node_kind[qs.source] |= kCsrKindSource;
  qs.answers.reserve(query_graph.answers.size());
  for (NodeId t : query_graph.answers) {
    const uint32_t dense = qs.csr.dense_id[static_cast<size_t>(t)];
    qs.csr.node_kind[dense] |= kCsrKindAnswer;
    qs.answers.push_back(dense);
  }
  return qs;
}

}  // namespace biorank
