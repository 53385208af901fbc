// Dependency index over a live query graph: each answer's (and therefore
// each canonical cache key's) footprint — the nodes and edges of its
// restricted evidence subgraph, as recorded by core/canonical.cc during
// canonicalization. Consulted when an EvidenceDelta lands so the update
// applier dirties exactly the affected answers and the ReliabilityCache
// drops exactly the orphaned keys — instead of a full rebuild plus cache
// flush.
//
// Soundness note: cache keys are pure functions of the subgraph (see
// core/canonical.h), so a *missed* invalidation can never produce a
// wrong value — a dirty answer re-canonicalizes to a fresh key. What the
// index must get right is the dirty-answer cover: every answer whose
// restricted subgraph an op can change must be listed. The rules:
//   remove/reweight edge e  -> answers whose subgraph contains e
//   revise node n           -> answers whose subgraph contains n
//   revise source prior S   -> answers whose subgraph has a node of S
//   add edge (u, v)         -> answers reachable from v in the *updated*
//                              graph (every new source->t path through
//                              the new edge continues from v, so any
//                              affected target t is a descendant of v)
// The first three are exact; the last is a conservative superset.
//
// Cost model: the index is one forward table, answer -> footprint, with
// no reverse postings. A delta marks the elements it touches and then
// scans every footprint, so it costs O(total footprint) plus, for added
// edges, one descendant walk. That is the right trade for the traffic it
// serves — tens of answers per session, a delta touching a few percent
// of the edges — where keeping reverse postings in step cost more than
// the scan.

#ifndef BIORANK_INGEST_DEPENDENCY_INDEX_H_
#define BIORANK_INGEST_DEPENDENCY_INDEX_H_

#include <vector>

#include "core/canonical.h"
#include "core/query_graph.h"
#include "ingest/delta.h"

namespace biorank::ingest {

/// Maps answers (by index into the live graph's answer list) to their
/// current canonical keys and footprints. Not internally synchronized:
/// the update applier guards it with the same writer lock as the graph.
class DependencyIndex {
 public:
  DependencyIndex() = default;

  /// (Re)registers answer `answer_index`: its current canonical key and
  /// the provenance of its restricted subgraph. Replaces any previous
  /// registration of the same answer. The graph argument is unused; it
  /// stays so existing callers compile unchanged.
  void Register(int answer_index, const CanonicalKey& key,
                const CandidateProvenance& provenance,
                const QueryGraph& /*graph*/);

  /// Answer indices whose subgraphs `delta` can affect, sorted and
  /// deduplicated. `updated_graph` must be the graph *after* the delta
  /// was applied (the add-edge rule walks descendants in it, and the
  /// source-prior rule reads footprint nodes' entity sets from it);
  /// `applied.new_edges` identifies the added edges.
  std::vector<int> AffectedAnswers(const EvidenceDelta& delta,
                                   const AppliedDelta& applied,
                                   const QueryGraph& updated_graph) const;

  /// Canonical keys used *only* by answers in `answers` (sorted input).
  /// Once those answers are re-canonicalized these keys have no remaining
  /// user in this graph — they are the entries worth evicting from the
  /// reliability cache. Keys shared with a clean answer are kept (that
  /// answer still hits them).
  std::vector<CanonicalKey> ExclusiveKeys(
      const std::vector<int>& answers) const;

  /// Whether any registered answer currently maps to `key`. The applier
  /// uses this after re-canonicalization to keep cache entries whose key
  /// a dirty answer re-derived unchanged (a no-op revision must not cost
  /// the cache).
  bool HasKey(const CanonicalKey& key) const;

 private:
  struct AnswerEntry {
    bool registered = false;
    CanonicalKey key;
    std::vector<NodeId> nodes;  ///< Ascending.
    std::vector<EdgeId> edges;  ///< Ascending.
  };

  /// Indexed by answer index.
  std::vector<AnswerEntry> entries_;
};

}  // namespace biorank::ingest

#endif  // BIORANK_INGEST_DEPENDENCY_INDEX_H_
