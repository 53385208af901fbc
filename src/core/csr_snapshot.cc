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

}  // namespace

CsrSnapshot BuildCsrSnapshot(const ProbabilisticEntityGraph& graph) {
  CsrSnapshot csr;
  const NodeId capacity = graph.node_capacity();
  csr.dense_id.assign(static_cast<size_t>(capacity), kCsrInvalid);
  csr.orig_id.reserve(static_cast<size_t>(graph.num_nodes()));
  csr.node_p.reserve(static_cast<size_t>(graph.num_nodes()));

  // Pass 1 — dense node ids in ascending original order (the ordering
  // contract).
  for (NodeId id = 0; id < capacity; ++id) {
    if (!graph.IsValidNode(id)) continue;
    csr.dense_id[static_cast<size_t>(id)] =
        CheckedUint32Cast(csr.orig_id.size(), "BuildCsrSnapshot node count");
    csr.orig_id.push_back(id);
    csr.node_p.push_back(graph.node(id).p);
  }
  const uint32_t n = csr.num_nodes();

  // Pass 2 — degree counts for both CSR directions, one slot ahead, then
  // prefix sums: offset[d] is the start of d's segment.
  csr.out_offset.assign(n + 1, 0);
  csr.in_offset.assign(n + 1, 0);
  uint32_t total = 0;
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    ++csr.out_offset[csr.dense_id[static_cast<size_t>(edge.from)] + 1];
    ++csr.in_offset[csr.dense_id[static_cast<size_t>(edge.to)] + 1];
    total = CheckedUint32Cast(static_cast<uint64_t>(total) + 1,
                              "BuildCsrSnapshot edge count");
  }
  for (uint32_t d = 0; d < n; ++d) {
    csr.out_offset[d + 1] += csr.out_offset[d];
    csr.in_offset[d + 1] += csr.in_offset[d];
  }
  csr.out_to.assign(total, kCsrInvalid);
  csr.out_q.assign(total, 0.0);
  csr.in_from.assign(total, kCsrInvalid);
  csr.in_q.assign(total, 0.0);

  // Pass 3 — fill both directions in ascending EdgeId order, so every
  // node's edge segment enumerates exactly as the pointer graph's
  // ForEachOutEdge / ForEachInEdge (adjacency lists append on AddEdge).
  // offset[d] is d's fill cursor, so it ends at d's segment end, the
  // start of d + 1; shifting the array up one slot restores the starts.
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    const uint32_t from = csr.dense_id[static_cast<size_t>(edge.from)];
    const uint32_t to = csr.dense_id[static_cast<size_t>(edge.to)];
    const uint32_t oc = csr.out_offset[from]++;
    csr.out_to[oc] = to;
    csr.out_q[oc] = edge.q;
    const uint32_t ic = csr.in_offset[to]++;
    csr.in_from[ic] = from;
    csr.in_q[ic] = edge.q;
  }
  for (uint32_t d = n; d > 0; --d) {
    csr.out_offset[d] = csr.out_offset[d - 1];
    csr.in_offset[d] = csr.in_offset[d - 1];
  }
  csr.out_offset[0] = 0;
  csr.in_offset[0] = 0;
  return csr;
}

bool CsrBytesEqual(const CsrSnapshot& a, const CsrSnapshot& b) {
  return BitsEqual(a.node_p, b.node_p) && a.orig_id == b.orig_id &&
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
  return qs;
}

}  // namespace biorank
