// The one public entry point of the biorank serving system (the paper's
// Section 2 / Figure 1 mediator as a *service*): api::Server owns the
// whole integration stack — protein universe, source registry, mediator,
// the shared RankingService (canonical reliability cache + thread pool)
// — plus a concurrent session registry for live queries. Callers speak
// typed value objects (api/query.h) and never assemble the stack by
// hand:
//
//   Query     — one-shot: materialize the graph, rank top-k through the
//               shared cache, return values + bounds + timing + counters.
//   RunBatch  — N independent requests fanned across the shared pool;
//               output bit-identical to running them serially (every
//               ranking is a pure function of the request, never of
//               interleaving, thread count, or cache state).
//   OpenSession / ApplyDelta / QuerySession / CloseSession — a live
//               query held resident behind a handle: evidence deltas
//               apply incrementally (ingest/), rankings stay
//               bit-identical to a from-scratch rebuild, and any number
//               of sessions share the one canonical reliability cache.
//   RankGraph — the serving facade for a caller-provided graph (benches,
//               rebuild references): Query minus the mediator crawl.
//   Refine    — advances an anytime response's RefinementHandle.
//
// The server is the one owner of a live session: the mediator only
// crawls. Query, RankGraph, Refine and QuerySession run under one
// request skeleton (seed check, admission, tracing, phase timing, error
// counting); the other session calls and CancelRefinement count their
// rejections too, so every error status a request returns adds exactly
// one to biorank_api_errors_total. Every counter the server
// keeps lives in its metrics registry; MetricsSnapshot() is the one read
// path.
//
// Thread safety: every public method may be called concurrently. The
// registry is a mutex-guarded handle map holding shared_ptr sessions, so
// a CloseSession racing an in-flight QuerySession is safe (the applier
// dies with its last reference); per-session reader/writer coordination
// is the UpdateApplier's shared_mutex; the cache has one lock. Idle
// sessions are evicted by server-operation age (a deterministic op
// clock, not wall time), so eviction is testable and replayable.

#ifndef BIORANK_API_SERVER_H_
#define BIORANK_API_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/admission.h"
#include "api/query.h"
#include "core/ranking.h"
#include "datagen/protein_universe.h"
#include "ingest/delta.h"
#include "ingest/update_applier.h"
#include "integrate/mediator.h"
#include "integrate/scenario_harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/ranking_service.h"
#include "sources/source_registry.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace biorank::api {

/// The server's observability knobs (obs/). Metrics are always on —
/// handle-based recording is cheap enough to never gate — but tracing
/// is opt-in per request (QueryOptions::trace) or threshold-triggered
/// (slow_query_threshold_s). The server always owns its metrics
/// registry; MetricsText/MetricsSnapshot read it.
struct ObservabilityOptions {
  /// Requests whose end-to-end latency reaches this many seconds keep
  /// their full span tree in the slow-query ring buffer (the newest 32
  /// captures). <= 0 (the default) disables capture — and with it the
  /// per-request Trace allocation, keeping the always-on hot path
  /// metrics-only.
  double slow_query_threshold_s = 0.0;
};

/// Everything a server instance is built from. One options bundle, one
/// world: the universe seed determines the sources, the mediator metrics
/// determine every node/edge probability, and the ranking options
/// determine the shared service (canonical seed, cache capacity, pool).
struct ServerOptions {
  UniverseOptions universe;
  SourceRegistryOptions sources;
  MediatorOptions mediator;
  serve::RankingServiceOptions ranking;
  /// Offline scoring (the five relevance functions) used by the
  /// evaluation harness this server exposes via harness().
  RankerOptions ranker;
  /// Deadline-ordered admission in front of Query/Refine (the SLO gate).
  /// The default (max_concurrent <= 0) admits everything immediately.
  AdmissionOptions admission;
  /// Metrics registry + slow-query tracing (obs/).
  ObservabilityOptions obs;
  /// Durability (storage/): when non-empty, the server boots warm from
  /// this directory (newest valid snapshot, then WAL replay past it),
  /// logs every session open/close and evidence delta to the WAL before
  /// applying it, and serves Checkpoint(). Empty (the default) keeps the
  /// server memory-only. A boot failure never aborts construction: the
  /// server comes up memory-only and storage_status() carries the error.
  std::string storage_dir;
  /// Group-fsync knobs for the WAL (ignored without storage_dir). The
  /// registry field is filled with the server's own registry when left
  /// null.
  storage::WalOptions wal;
};

/// What one Server::Checkpoint() wrote.
struct CheckpointReport {
  uint64_t wal_lsn = 0;      ///< Covering LSN stamped into the snapshot.
  std::string path;          ///< Snapshot file written.
  uint64_t bytes = 0;        ///< Encoded snapshot size.
  size_t sessions = 0;       ///< Live sessions captured.
  size_t cache_entries = 0;  ///< Resolved cache entries captured.
  double seconds = 0.0;      ///< Wall time, capture through rename.
};

/// The front door. Construction generates the synthetic world and wires
/// the full stack; one instance is one deployment, shared by any number
/// of client threads.
class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Syncs the WAL (best-effort) before tearing the stack down, so a
  /// clean shutdown never leaves an un-synced suffix for the next boot
  /// to treat as a torn tail.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one typed request end to end: admission (deadline-ordered
  /// when the server caps concurrency), mediator crawl, then (unless
  /// options.rank is false or the answer set is empty) a ranking pass
  /// through the shared service (a foreign QueryOptions::seed is
  /// kInvalidArgument, before admission). Both modes run the one
  /// serve pipeline (serve/refinement.h): kBlocking advances every
  /// survivor to convergence before returning; kAnytime returns the
  /// bounds-only ranking plus whatever refinement the deadline/budget
  /// allowed, carrying a RefinementHandle when answers are still open. A
  /// request whose deadline passes while queued gets kDeadlineExceeded
  /// and no partial answer.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// Advances a live anytime refinement by one increment (per-survivor
  /// `options.mc_trial_budget` MC trials; <= 0 refines to convergence or
  /// `options` deadline). The response carries the updated ranking,
  /// cumulative stats, and completeness; when the ranking is final the
  /// handle is retired (response.refinement.id == 0) and the result is
  /// bit-identical to the blocking answer. Errors: NotFound (unknown,
  /// finished or cancelled handle), kDeadlineExceeded (deadline passed in
  /// the admission queue).
  /// Refinement is deterministic: state advances by whole shards of the
  /// per-candidate trial schedule, so any increment sequence converges
  /// to the same values. Concurrent Refine calls on one handle serialize.
  Result<QueryResponse> Refine(RefinementHandle handle,
                               const QueryOptions& options = {});

  /// Cancels a live refinement: its state is dropped and the handle
  /// answers NotFound from then on, as a finished one does. NotFound for
  /// handles that are not live.
  Status CancelRefinement(RefinementHandle handle);

  /// Fans `batch` (independent requests) across the shared pool and
  /// returns one response per request, in request order. Output is
  /// bit-identical to calling Query serially at any thread count; on any
  /// request failure the first (lowest-index) error is returned.
  Result<std::vector<QueryResponse>> RunBatch(
      const std::vector<QueryRequest>& batch);

  /// Ranks a caller-provided query graph through the shared service —
  /// the facade for pre-materialized or synthetic graphs. The response's
  /// `result` is empty (the caller holds the graph).
  Result<QueryResponse> RankGraph(const QueryGraph& graph, int top_k);

  /// The full-options form of RankGraph: the same admission gate and
  /// blocking/anytime dispatch as Query, minus the mediator crawl. An
  /// anytime call leaves a RefinementHandle exactly like an anytime
  /// Query; the refinement state owns its canonicalizations, so the
  /// caller's graph need not outlive the handle. The plain int-top_k
  /// overload above forwards here with default (blocking, no-deadline)
  /// options. The graph must pass QueryGraph::Validate — a live source
  /// and distinct non-source answers — even when it has no answers
  /// (anything else is kInvalidArgument).
  Result<QueryResponse> RankGraph(const QueryGraph& graph,
                                  const QueryOptions& options);

  /// Stands `request.query` up as a live session: the materialized graph
  /// stays resident, evidence deltas apply incrementally, and queries
  /// ride the per-answer canonicals. `request.options.top_k` and `.mode`
  /// are ignored (k is per QuerySession call; sessions always serve
  /// blocking); a foreign `options.seed` is kInvalidArgument, as at
  /// Query.
  Result<SessionInfo> OpenSession(const QueryRequest& request);

  /// Ranks a live session's answer set (top_k <= 0 ranks all) under the
  /// request skeleton, blocking and with no deadline. The response
  /// carries labeled answers and matched_proteins but no graph copy (see
  /// SessionSnapshot) and no go_node map (OpenSession's SessionInfo
  /// delivered it once; it is fixed for the session).
  Result<QueryResponse> QuerySession(SessionId id, int top_k = 0);

  /// Validates (graph + schema metrics) and applies one evidence delta
  /// to a live session; exactly the orphaned cache keys are invalidated
  /// and exactly the dirtied answers re-canonicalized.
  Result<ingest::ApplyReport> ApplyDelta(SessionId id,
                                         const ingest::EvidenceDelta& delta);

  /// Copy of a session's live graph (the from-scratch rebuild reference
  /// in tests/benches, and the base for building structural deltas).
  Result<QueryGraph> SessionSnapshot(SessionId id);

  /// Closes a session; its handle is never reused. In-flight requests
  /// holding the session finish safely. NotFound for stale handles.
  Status CloseSession(SessionId id);

  /// Closes every session idle for more than `min_idle_ops` server
  /// operations; returns how many were evicted.
  size_t EvictIdleSessions(uint64_t min_idle_ops);

  size_t session_count() const;
  size_t refinement_count() const;

  /// Writes one versioned snapshot of the whole durable state (every
  /// live session's frozen graph + CSR, the resolved cache entries, the
  /// covering WAL LSN) to the storage directory. Readers are never
  /// blocked: each session is frozen under its applier's *shared* lock,
  /// and the session registry lock is held only long enough to capture
  /// the LSN and the session pointers. kFailedPrecondition when the
  /// server has no storage attached (or its boot failed).
  Result<CheckpointReport> Checkpoint();

  /// OK when the server is durable (or memory-only by configuration);
  /// the boot error when ServerOptions::storage_dir was set but the
  /// warm boot failed and the server fell back to memory-only.
  const Status& storage_status() const { return storage_status_; }

  /// Whether a WAL is attached (storage booted OK).
  bool durable() const { return wal_ != nullptr; }

  /// What the warm boot did (zeroes for memory-only servers).
  const storage::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }

  /// Point-in-time metrics: the server's registry snapshot, as a value
  /// or rendered in Prometheus text exposition format. Spans
  /// api (request counters, phase latency histograms), serve
  /// (scheduler counters, bounds/MC histograms, cache), ingest (delta
  /// counters, apply latency) and, on durable servers, storage. The
  /// registry is the one read path for server counters: read a family
  /// by name with obs::Snapshot::FindCounter / FindGauge.
  std::string MetricsText() const;
  obs::Snapshot MetricsSnapshot() const;

  /// Captured slow-query traces (empty unless
  /// ObservabilityOptions::slow_query_threshold_s is set).
  const obs::SlowQueryLog& slow_queries() const { return slow_log_; }

  const ProteinUniverse& universe() const { return universe_; }
  const SourceRegistry& sources() const { return registry_; }
  const Mediator& mediator() const { return mediator_; }
  /// The evaluation harness over this server's world (scenario queries,
  /// AP scoring, perturbation/MC repetition loops). Borrowed; lives as
  /// long as the server.
  const ScenarioHarness& harness() const { return harness_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// A live session: the crawled graph behind an ingest UpdateApplier
  /// bound to service_, plus the crawl bookkeeping.
  struct Session {
    std::unique_ptr<ingest::UpdateApplier> applier;
    /// GO-term ontology index -> answer node id (for building deltas and
    /// gold-standard lookups against the live graph).
    std::unordered_map<int, NodeId> go_node;
    /// Answer node id -> record label, captured at materialization (the
    /// answer set is fixed for the session, so labels never go stale):
    /// session responses are labeled without snapshotting the graph.
    std::unordered_map<NodeId, std::string> answer_labels;
    int matched_proteins = 0;
    /// Op-clock value of the last operation that touched this session.
    std::atomic<uint64_t> last_touch{0};
  };

  /// One server-resident anytime refinement, registered only when an
  /// anytime response still has open answers. The state owns its
  /// canonicalizations (self-contained reduced residues), so the
  /// original query graph does not stay resident; labels are captured
  /// once at registration.
  struct Refinement {
    std::mutex mu;  ///< Serializes Refine increments on this handle.
    serve::RefinementState state;
    std::unordered_map<NodeId, std::string> labels;
  };

  /// Bumps the op clock (every public operation is one tick).
  uint64_t Tick() { return op_clock_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Handle lookup; touches the session's idle clock with the current
  /// op-clock value on success. The caller counts a NotFound.
  Result<std::shared_ptr<Session>> FindSession(SessionId id);

  /// Crawls `query` and stands the graph up as a session on service_
  /// (OpenSession and the WAL replay of an open record).
  Result<std::shared_ptr<Session>> MaterializeSession(
      const ExploratoryQuery& query);

  /// The one seed rule: a seed that is nonzero and not the server's is
  /// kInvalidArgument (every ranking shares the canonical cache).
  Status CheckSeed(uint64_t seed) const;

  /// The one request skeleton Query, RankGraph, Refine and QuerySession
  /// run under: ticks the op clock, resolves the deadline, starts the
  /// trace (the caller's, or a server-owned one when slow-query capture
  /// is armed) under a root span named `span`, checks the seed, and
  /// admits through the deadline-ordered queue (a request that cannot
  /// start before its deadline gets the typed rejection and no partial
  /// answer). `body(deadline, trace, response)` then runs holding the
  /// ticket, so everything it does counts against the concurrency cap.
  /// On success the skeleton stamps queue_s/total_s and the phase
  /// histograms, bumps `served` (when non-null) and offers the trace to
  /// the slow-query log as `entry_point`; any non-OK status, the seed
  /// check's, admission's or the body's, counts once in
  /// biorank_api_errors_total.
  template <typename Body>
  Result<QueryResponse> Serve(const char* entry_point, const char* span,
                              const QueryOptions& options,
                              obs::Counter* served, Body&& body);

  /// The body shared by Query (after its crawl) and RankGraph: unless
  /// options.rank is false, prepare on the shared service, advance per
  /// the request's mode/budget/deadline,
  /// and register a refinement handle only when answers are still open.
  /// Fills the ranking half of `response` (rank_s = prepare, refine_s =
  /// advance).
  Status RankWithOptions(const QueryGraph& graph,
                         const QueryOptions& options,
                         std::chrono::steady_clock::time_point deadline,
                         obs::Trace* trace, QueryResponse& response);

  /// Resolves the registry handles (constructor) and registers the
  /// gauge collectors for sessions/refinements/cache/admission.
  void InitMetrics();

  /// FNV-style hash over every option that determines ranking values
  /// (universe shape + seed, mediator sources, MC seed + trial plan and
  /// the served MC estimator's version).
  /// Stamped into the WAL header and every snapshot; a mismatch on boot
  /// means the directory belongs to a differently-configured server and
  /// replaying it would silently change results.
  uint64_t StorageFingerprint() const;

  /// The warm boot: newest valid snapshot -> session reconstruction ->
  /// cache restore -> WAL open (torn-tail truncation) -> replay past
  /// the snapshot -> attach the WAL to every live applier. Runs in the
  /// constructor, before any concurrent caller exists, so it touches
  /// sessions_ without the registry lock.
  Status BootStorage();

  /// Appends a session-lifecycle record; requires sessions_mu_ (the
  /// checkpoint's LSN capture takes the same lock, so the captured LSN
  /// cleanly partitions open/close records into before/after).
  Result<uint64_t> LogSessionEventLocked(storage::WalRecordType type,
                                         SessionId id,
                                         const std::string& body);

  /// Per-server registry-backed counters/histograms (see InitMetrics
  /// for names). Raw handles: the registry owns the metrics and lives
  /// as long as the server.
  struct Metrics {
    obs::Counter* queries = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batch_requests = nullptr;
    obs::Counter* graph_rankings = nullptr;
    obs::Counter* sessions_opened = nullptr;
    obs::Counter* sessions_closed = nullptr;
    obs::Counter* sessions_evicted = nullptr;
    obs::Counter* session_queries = nullptr;
    obs::Counter* deltas_applied = nullptr;
    obs::Counter* delta_ops = nullptr;
    obs::Counter* dirty_answers = nullptr;
    obs::Counter* invalidated_entries = nullptr;
    obs::Counter* refinements_started = nullptr;
    obs::Counter* refinements_completed = nullptr;
    obs::Counter* refinements_cancelled = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* slow_queries = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* replayed_records = nullptr;
    obs::Histogram* snapshot_write_seconds = nullptr;
    obs::Histogram* recovery_seconds = nullptr;
    obs::Histogram* query_seconds = nullptr;
    obs::Histogram* queue_seconds = nullptr;
    obs::Histogram* integrate_seconds = nullptr;
    obs::Histogram* rank_seconds = nullptr;
    obs::Histogram* refine_seconds = nullptr;
    obs::Histogram* apply_seconds = nullptr;
  };

  ServerOptions options_;
  /// Declared before service_ so the ranking options can carry the
  /// registry pointer into the service's constructor. `registry_` was
  /// already taken (the SourceRegistry), hence the obs_ prefix.
  obs::Registry obs_registry_;
  ProteinUniverse universe_;
  SourceRegistry registry_;
  Mediator mediator_;
  serve::RankingService service_;
  ScenarioHarness harness_;

  AdmissionQueue admission_;
  obs::SlowQueryLog slow_log_;
  Metrics metrics_;

  /// Durability (null/empty for memory-only servers). wal_ is created by
  /// BootStorage and never reassigned afterwards, so readers may test it
  /// without a lock; Append serializes internally.
  std::unique_ptr<storage::Wal> wal_;
  Status storage_status_;
  storage::RecoveryReport recovery_report_;

  std::atomic<uint64_t> op_clock_{0};
  std::atomic<uint64_t> next_session_id_{1};
  mutable std::mutex sessions_mu_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;

  std::atomic<uint64_t> next_refinement_id_{1};
  mutable std::mutex refinements_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Refinement>> refinements_;

  std::atomic<uint64_t> next_trace_id_{1};
};

}  // namespace biorank::api

#endif  // BIORANK_API_SERVER_H_
