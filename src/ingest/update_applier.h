// Applies EvidenceDelta batches to a live, served query graph and keeps
// its top-k ranking incrementally maintained. One UpdateApplier owns one
// live graph plus the per-answer canonicalizations and the dependency
// index built from their provenance; it shares a RankingService (and
// therefore the process-wide reliability cache) with every other live
// graph and with batch RankTopK callers.
//
//   delta -> validate -> apply to graph (writer lock)
//         -> dependency index: dirty answers + orphaned canonical keys
//         -> ReliabilityCache::InvalidateKeys(orphans), never a full flush
//         -> re-canonicalize only the dirty answers
//   query -> RankPrepared over the per-answer canonicals (reader lock):
//            clean answers hit the warm cache, dirty answers re-enter
//            the bound/prune/resolve pipeline.
//
// Concurrency: a single writer (ApplyDelta) excludes in-flight RankTopK
// readers with a shared_mutex — readers of epoch E never observe writer
// E+1's partial mutations, which is the epoch guarantee a seqlock would
// give without forcing expensive ranking requests to retry. Readers run
// concurrently with each other and fan their per-candidate work out over
// util/parallel's shared pool as usual.
//
// Determinism contract (asserted in tests and bench_ingest_updates):
// after any sequence of deltas, RankTopK output is bit-identical to a
// from-scratch RankingService::RankTopK on a fresh copy of the updated
// graph, at any thread count, cache on or off — every resolved value is
// a pure function of the canonical key, and clean answers keep keys that
// are provably unchanged (their restricted subgraphs were untouched).

#ifndef BIORANK_INGEST_UPDATE_APPLIER_H_
#define BIORANK_INGEST_UPDATE_APPLIER_H_

#include <cstddef>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/canonical.h"
#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "ingest/delta.h"
#include "ingest/dependency_index.h"
#include "serve/ranking_service.h"
#include "storage/wal.h"
#include "util/status.h"

namespace biorank::ingest {

/// What one ApplyDelta did, for observability and the ingest bench.
struct ApplyReport {
  int ops = 0;                   ///< Ops in the delta, all groups.
  int nodes_added = 0;
  int edges_added = 0;
  int edges_removed = 0;
  int edges_reweighted = 0;
  int node_probs_revised = 0;
  int source_priors_revised = 0;
  int dirty_answers = 0;         ///< Answers re-entering the pipeline.
  int clean_answers = 0;         ///< Answers whose canonicals survived.
  size_t stale_keys = 0;         ///< Canonical keys orphaned by the delta.
  size_t invalidated_entries = 0;///< Live cache entries actually dropped.
};

/// A live, updatable served query graph. Thread-safe: any number of
/// concurrent RankTopK/GraphSnapshot readers, one ApplyDelta writer at a
/// time. Every delta erases its orphaned canonical keys from the
/// service's reliability cache.
class UpdateApplier {
 public:
  /// Takes ownership of `graph` (the answer set stays fixed for the
  /// session; deltas revise evidence, not the question). `service` must
  /// outlive the applier. Builds the flat snapshot and canonicalizes
  /// every answer up front; a failure surfaces on the first method call.
  /// `applied_lsn` seeds last_wal_lsn(): warm boot passes a checkpoint's
  /// per-session position, so a re-checkpoint before any new delta still
  /// covers the already-baked-in history.
  UpdateApplier(QueryGraph graph, serve::RankingService* service,
                uint64_t applied_lsn = 0);

  /// Validates and applies one delta under the writer lock, invalidates
  /// exactly the orphaned cache keys, and re-canonicalizes exactly the
  /// dirty answers. When `metrics` is non-null the delta is additionally
  /// validated against the schema layer (Mediator::ApplyDelta passes its
  /// metrics). On validation failure nothing changes.
  Result<ApplyReport> ApplyDelta(const EvidenceDelta& delta,
                                 const ProbabilisticMetrics* metrics =
                                     nullptr);

  /// Attaches the durability log (storage/wal.h): every later ApplyDelta
  /// becomes log-then-apply — the delta is structurally validated, then
  /// appended to `wal` as session `session_id`, then applied. Invalid
  /// deltas are rejected *before* logging, so a WAL replay can never
  /// fail validation. Pass null to detach. Borrowed; must outlive the
  /// applier (or be detached first).
  void AttachWal(storage::Wal* wal, uint64_t session_id);

  /// Recovery path: applies a delta that is *already* in the WAL without
  /// re-appending it, recording `lsn` as this session's applied
  /// position. Same semantics as ApplyDelta otherwise.
  Result<ApplyReport> ApplyReplayed(const EvidenceDelta& delta, uint64_t lsn,
                                    const ProbabilisticMetrics* metrics =
                                        nullptr);

  /// LSN of the last delta applied through this applier (logged or
  /// replayed); 0 before any. Reader lock.
  uint64_t last_wal_lsn() const;

  /// A checkpoint capture: the live graph and the applied LSN, copied
  /// under one reader lock so they are mutually consistent (a concurrent
  /// writer either happened before the pair or after it).
  struct FrozenState {
    QueryGraph graph;
    uint64_t wal_lsn = 0;
  };
  FrozenState Freeze() const;

  /// Ranks the live answer set under the reader lock: clean answers ride
  /// their kept canonicals (warm cache), dirty ones were re-canonicalized
  /// by the last delta. Same semantics as RankingService::RankTopK.
  Result<serve::TopKResult> RankTopK(int k) const;

  /// Copy of the live graph (reader lock) — the from-scratch rebuild
  /// reference in tests and benches ranks this.
  QueryGraph GraphSnapshot() const;

  int answer_count() const;

  /// The maintained flat snapshot of the live graph (core/csr_snapshot.h):
  /// rebuilt after every successful ApplyDelta graph mutation, before the
  /// dirty answers re-canonicalize, so re-canonicalization always
  /// traverses the packed arrays of the *updated* graph. Byte-equal to
  /// BuildCsrSnapshot(GraphSnapshot().graph) at every quiesce point
  /// (asserted in tests). Not synchronized — inspect only while no writer
  /// is running.
  const CsrSnapshot& csr_snapshot() const { return csr_; }

 private:
  /// Canonicalizes the given answers of the live graph (parallel, pure
  /// per answer) and registers them in the dependency index. Requires the
  /// writer lock (or the constructor's exclusivity).
  Status Recanonicalize(const std::vector<int>& answer_indices);

  /// The delta pipeline body; requires the writer lock. `replay_lsn` 0
  /// means a live delta (append to the attached WAL, if any); nonzero
  /// means a replay of an already-logged record at that LSN.
  Result<ApplyReport> ApplyLocked(const EvidenceDelta& delta,
                                  const ProbabilisticMetrics* metrics,
                                  uint64_t replay_lsn);

  mutable std::shared_mutex mu_;
  QueryGraph graph_;
  serve::RankingService* service_;
  /// The service's CanonicalizeOptions plus provenance collection, so
  /// the applier's keys are interchangeable with RankTopK's.
  CanonicalizeOptions canonicalize_;
  /// Per-answer canonicalizations; unique_ptr for pointer stability
  /// across the vector (RankPrepared holds raw pointers during a
  /// request; dirty slots are swapped whole under the writer lock).
  std::vector<std::unique_ptr<CanonicalCandidate>> canonicals_;
  DependencyIndex index_;
  /// Flat read-side view of graph_; rebuilt under the writer lock on
  /// every delta (the delta layer mutates graph_ in place, and a rebuild
  /// is O(V+E) — the same order as the mask BFS it feeds).
  CsrSnapshot csr_;
  Status init_status_;
  /// Durability hookup (null = memory-only). Guarded by mu_ like the
  /// rest of the writer state.
  storage::Wal* wal_ = nullptr;
  uint64_t wal_session_id_ = 0;
  uint64_t last_wal_lsn_ = 0;
};

}  // namespace biorank::ingest

#endif  // BIORANK_INGEST_UPDATE_APPLIER_H_
