// Immutable struct-of-arrays CSR snapshot of the alive (optionally
// mask-restricted) part of a probabilistic entity graph — the read-side
// substrate of the Monte Carlo and traversal hot paths.
//
// The mutable ProbabilisticEntityGraph stays the ingest write side: it
// supports tombstoned removal, bypass-edge insertion, and per-element
// probability revision, all of which the Section 3.1 reductions and the
// delta applier need. But the hot consumers (reliability_mc, diffusion,
// the query-relevant restriction inside canonicalization) touch every
// edge up to 1e4 times per query and were walking
// vector<vector<EdgeId>> adjacency through tombstone filters. This
// snapshot packs the kept subgraph once into contiguous arrays:
//
//   dense node ids   uint32_t, 0..num_nodes()-1, ascending original id
//   out_offset[n+1]  CSR offsets into out_to / out_q
//   out_to, out_q    packed edge targets + probabilities (double: the
//                    Bernoulli thresholds must be bit-exact)
//   in_offset/from/q the transposed CSR (diffusion, backward BFS)
//   node_p           presence probabilities, double
//   node_confidence  float side array (compact scans; never the sampler)
//   node_kind        role flags (source / answer), set by the query wrapper
//   orig_id/dense_id the two-way id mapping back to the pointer graph
//
// Ordering contract (load-bearing for bit-identical differential runs):
// dense node ids ascend by original NodeId, and each node's out- and
// in-edge segments ascend by original EdgeId — exactly the enumeration
// order of the pointer-graph paths, so both backends flip the same coins
// in the same order.
//
// Snapshots are plain value types: build once per canonical answer (or
// per delta, in ingest/update_applier), share read-only across threads.

#ifndef BIORANK_CORE_CSR_SNAPSHOT_H_
#define BIORANK_CORE_CSR_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "core/query_graph.h"
#include "util/status.h"

namespace biorank {

/// Sentinel for "original node not present in the snapshot".
inline constexpr uint32_t kCsrInvalid = UINT32_C(0xFFFFFFFF);

/// Node-kind flags (node_kind side array). BuildCsrSnapshot leaves kinds
/// 0; BuildCsrQuerySnapshot stamps the query roles.
inline constexpr uint8_t kCsrKindSource = 1;
inline constexpr uint8_t kCsrKindAnswer = 2;

/// Flat read-only CSR view. All arrays are indexed by dense node id
/// except dense_id (indexed by original NodeId).
struct CsrSnapshot {
  // Node arrays, size num_nodes().
  std::vector<double> node_p;        ///< Presence probabilities.
  std::vector<float> node_confidence;///< float(p) side array for scans.
  std::vector<uint8_t> node_kind;    ///< kCsrKind* flags (query roles).
  std::vector<NodeId> orig_id;       ///< dense -> original id, ascending.

  /// original NodeId -> dense id; kCsrInvalid for dead/masked-out nodes.
  /// Size = node_capacity() of the source graph.
  std::vector<uint32_t> dense_id;

  // Forward CSR: out-edges of dense node d are [out_offset[d],
  // out_offset[d+1]) into out_to / out_q.
  std::vector<uint32_t> out_offset;  ///< Size num_nodes() + 1.
  std::vector<uint32_t> out_to;      ///< Dense target ids.
  std::vector<double> out_q;         ///< Edge probabilities.

  // Transposed CSR: in-edges of dense node d.
  std::vector<uint32_t> in_offset;
  std::vector<uint32_t> in_from;     ///< Dense source ids.
  std::vector<double> in_q;

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(node_p.size());
  }
  uint32_t num_edges() const {
    return static_cast<uint32_t>(out_to.size());
  }
  /// Node capacity of the graph this snapshot was built from; scores
  /// computed on the snapshot expand back to this indexing.
  NodeId orig_capacity() const {
    return static_cast<NodeId>(dense_id.size());
  }
};

/// Builds the flat snapshot of `graph`. Includes every alive node (and
/// every alive edge between included nodes); when `kept_mask` is given
/// (indexed by original NodeId), only alive nodes with a true mask entry
/// are included — the same restriction semantics as
/// RestrictToQueryRelevantSubgraph's copy, but without constructing a
/// pointer graph. Aborts (checked cast) on graphs past 2^32 nodes or
/// edges.
CsrSnapshot BuildCsrSnapshot(const ProbabilisticEntityGraph& graph,
                             const std::vector<bool>* kept_mask = nullptr);

/// Byte-level equality of two snapshots: every array identical, doubles
/// compared by bit pattern (so a NaN-for-NaN rebuild still matches and a
/// -0.0/+0.0 drift still fails). This is the ingest-layer acceptance
/// check: an incrementally maintained snapshot must be byte-equal to a
/// from-scratch build of the updated graph.
bool CsrBytesEqual(const CsrSnapshot& a, const CsrSnapshot& b);

/// A query graph's snapshot: the flat view plus the source and answer
/// roles in dense id space. node_kind carries the same roles as flags.
struct CsrQuerySnapshot {
  CsrSnapshot csr;
  uint32_t source = kCsrInvalid;       ///< Dense id of the query node.
  std::vector<uint32_t> answers;       ///< Dense answer ids, input order.
};

/// Builds the query snapshot of a validated query graph. Fails exactly
/// when QueryGraph::Validate fails.
Result<CsrQuerySnapshot> BuildCsrQuerySnapshot(const QueryGraph& query_graph);

}  // namespace biorank

#endif  // BIORANK_CORE_CSR_SNAPSHOT_H_
