// Canonicalization of reduced per-answer query graphs: the key that
// lets the serving layer share one reliability computation across every
// tuple (and every successive exploratory query) whose reduced evidence
// subgraph is isomorphic — the reuse opportunity motivating the
// serve/reliability_cache memo.

#ifndef BIORANK_CORE_CANONICAL_H_
#define BIORANK_CORE_CANONICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "core/reduction.h"
#include "util/status.h"

namespace biorank {

/// Identity of a reduced query graph up to node relabeling.
///
/// `repr` is a full canonical serialization (topology + exact probability
/// bit patterns + source/target roles), so equal reprs imply genuinely
/// identical probabilistic graphs — a cache keyed on `repr` can never
/// return the reliability of a *different* graph. Isomorphic graphs map
/// to the same repr whenever the canonical labeling search converges.
/// The search runs on the reduced residue's CSR snapshot
/// (core/csr_snapshot.h): it individualizes one node of the first
/// ambiguous color class and recurses, exploring at most 64 candidate
/// labelings (a constant in core/canonical.cc). Within that cap the
/// labeling is truly canonical (isomorphic graphs collide); beyond it the
/// search keeps only the first branch per class — still deterministic
/// and still collision-free, but two isomorphic graphs may then receive
/// different keys. A missed identification only costs a cache miss,
/// never a wrong value; reduced evidence graphs are tiny, so the cap is
/// effectively never hit on real workloads.
struct CanonicalKey {
  std::string repr;  ///< Canonical serialization; equality = same graph.
  uint64_t hash = 0; ///< FNV-1a of repr: the MC stream id.
};

/// Options for canonicalization.
struct CanonicalizeOptions {
  /// Reduction rules applied to the per-answer subgraph before labeling.
  ReductionOptions reduction;
  /// Record which original-graph nodes and edges the candidate's
  /// *pre-reduction* restricted subgraph contains (the ingest layer's
  /// dependency index consumes this). Off by default: provenance does not
  /// affect the key, and pure serving callers should not pay for it.
  bool collect_provenance = false;
};

/// The original-graph footprint of one candidate: every node and alive
/// edge of the restricted (pre-reduction) evidence subgraph, by the ids
/// of the *request's* graph. An evidence update can change the
/// candidate's canonical key only if it touches this set (or adds an
/// edge from which the target becomes newly reachable — the one growth
/// case, handled by ingest/dependency_index's AddEdge rule).
struct CandidateProvenance {
  std::vector<NodeId> nodes;  ///< Ascending original node ids.
  std::vector<EdgeId> edges;  ///< Ascending original edge ids.
};

/// One answer node's cacheable resolution unit: the canonical form of its
/// reduced evidence subgraph.
struct CanonicalCandidate {
  CanonicalKey key;
  /// The reduced subgraph rebuilt in canonical node order with
  /// `answers = {target}`. Every isomorphic input yields this exact
  /// graph (bit-identical probabilities, same node numbering), so any
  /// computation run on it — bounds, factoring, seeded Monte Carlo — is
  /// a pure function of `key`. Labels and entity sets are dropped; they
  /// do not affect reliability.
  QueryGraph canonical;
  /// The canonical id of the answer node (== canonical.answers[0]).
  NodeId target = kInvalidNode;
  /// Counters from the reduction pass.
  ReductionStats reduction_stats;
  /// Original-graph footprint; populated only when
  /// CanonicalizeOptions::collect_provenance is set.
  CandidateProvenance provenance;
};

/// Restricts `query_graph` to the evidence subgraph of one answer node
/// (nodes on some source -> target path, core/graph_algo.h's
/// RestrictToTarget), applies the Section 3.1 reductions with only the
/// source and `target` protected, and computes the canonical form. Fails
/// on invalid query graphs or if `target` is not one of the answers.
///
/// The restriction runs target-first over a flat snapshot of
/// `query_graph.graph` (core/csr_snapshot.h), so an answer costs time
/// proportional to its evidence subgraph rather than to the request
/// graph. `graph_csr` must be non-null: an unmasked snapshot of that
/// graph (BuildCsrSnapshot), which callers canonicalizing many targets
/// against one graph (the serving fan-out, ingest recanonicalization)
/// build once and pass to every call.
Result<CanonicalCandidate> CanonicalizeCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options, const CsrSnapshot* graph_csr);

/// CanonicalizeCandidate's input checks for a batch of targets: the query
/// graph validates, every target is one of its answers, and no target
/// appears twice (a batch ranks a distinct subset of the answer set).
Status ValidateCanonicalizeTargets(const QueryGraph& query_graph,
                                   const std::vector<NodeId>& targets);

/// CanonicalizeCandidate without its input checks, for batch callers
/// (RankingService::CanonicalizeTargets) that run
/// ValidateCanonicalizeTargets once for all their targets. `query_graph`
/// and `target` must pass those checks, and `graph_csr` must be an
/// unmasked snapshot of `query_graph.graph`.
CanonicalCandidate CanonicalizeValidatedCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options, const CsrSnapshot& graph_csr);

/// FNV-1a 64-bit hash, exposed for tests and the storage fingerprint.
uint64_t Fnv1a64(const std::string& text);

}  // namespace biorank

#endif  // BIORANK_CORE_CANONICAL_H_
