#include "api/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/canonical.h"
#include "obs/export.h"
#include "storage/codec.h"
#include "util/file.h"

namespace biorank::api {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Captured slow-query traces the server keeps (the newest win).
constexpr size_t kSlowTraceCapacity = 32;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// The ranking options the shared service is built from: the caller's,
/// plus the server's metrics registry (unless the caller already wired
/// a registry of their own).
serve::RankingServiceOptions WithRegistry(serve::RankingServiceOptions ranking,
                                          obs::Registry* registry) {
  if (ranking.registry == nullptr) ranking.registry = registry;
  return ranking;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      universe_(ProteinUniverse::Generate(options_.universe)),
      registry_(universe_, options_.sources),
      mediator_(registry_, options_.mediator),
      service_(WithRegistry(options_.ranking, &obs_registry_)),
      harness_(universe_, registry_, mediator_, options_.ranker),
      admission_(options_.admission),
      slow_log_(kSlowTraceCapacity, options_.obs.slow_query_threshold_s) {
  options_.ranking.registry = service_.options().registry;
  InitMetrics();
  if (!options_.storage_dir.empty()) {
    storage_status_ = BootStorage();
    if (!storage_status_.ok()) {
      // A failed boot must not leave half-recovered sessions serving:
      // fall back to a memory-only server and surface the error through
      // storage_status(). (The construction contract is "never throws";
      // callers that require durability check storage_status()/durable().)
      sessions_.clear();
      wal_.reset();
      next_session_id_.store(1, std::memory_order_relaxed);
    }
  }
}

Server::~Server() {
  if (wal_ != nullptr) wal_->Sync();  // Best-effort; errors have nowhere to go.
}

uint64_t Server::StorageFingerprint() const {
  // Every option that changes ranking values (or graph shape) goes into
  // the key; formatting knobs (observability, admission, WAL sync) stay
  // out — they are free to differ across restarts of the same store.
  std::string key;
  auto field = [&key](uint64_t v) {
    key += std::to_string(v);
    key += '|';
  };
  const UniverseOptions& u = options_.universe;
  field(u.seed);
  field(static_cast<uint64_t>(u.num_go_terms));
  field(static_cast<uint64_t>(u.num_families));
  field(static_cast<uint64_t>(u.proteins_per_family));
  field(static_cast<uint64_t>(u.hypothetical_family_size));
  field(static_cast<uint64_t>(u.family_function_pool));
  field(static_cast<uint64_t>(u.num_well_studied));
  field(static_cast<uint64_t>(u.num_hypothetical));
  field(options_.mediator.include_minor_sources ? 1 : 0);
  const serve::RankingServiceOptions& r = options_.ranking;
  field(r.seed);
  field(serve::kServedMcEstimatorVersion);
  field(static_cast<uint64_t>(r.exact_max_edges));
  field(static_cast<uint64_t>(r.mc_shard_trials));
  // Doubles ride their bit patterns (the values are configuration
  // constants, so bit-equality is the right notion of "same").
  auto double_field = [&](double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    field(bits);
  };
  double_field(r.mc_epsilon);
  double_field(r.mc_delta);
  double_field(serve::kBoundResolveEpsilon);
  return Fnv1a64(key);
}

Status Server::BootStorage() {
  const SteadyClock::time_point start = SteadyClock::now();
  const std::string& dir = options_.storage_dir;
  BIORANK_RETURN_IF_ERROR(util::EnsureDir(dir));
  const uint64_t fingerprint = StorageFingerprint();

  // 1. Newest valid snapshot (corrupt ones fall back to older; a
  //    fingerprint mismatch aborts the boot).
  Result<storage::SnapshotLoadResult> loaded =
      storage::LoadNewestValidSnapshot(dir, fingerprint);
  if (!loaded.ok()) return loaded.status();
  storage::SnapshotLoadResult& snap = loaded.value();
  recovery_report_.snapshot_loaded = snap.found;
  recovery_report_.corrupt_snapshots_skipped = snap.corrupt_skipped;

  uint64_t covering_lsn = 0;
  uint64_t next_id = 1;
  // Per-session replay floor: deltas with lsn <= the floor are already
  // baked into the snapshotted graph.
  std::unordered_map<uint64_t, uint64_t> applied_lsn;
  if (snap.found) {
    covering_lsn = snap.state.wal_lsn;
    recovery_report_.snapshot_lsn = covering_lsn;
    next_id = snap.state.next_session_id;
    for (storage::SnapshotSession& s : snap.state.sessions) {
      auto session = std::make_shared<Session>();
      session->applier = std::make_unique<ingest::UpdateApplier>(
          std::move(s.graph), &service_, s.applied_lsn);
      session->go_node = std::move(s.go_node);
      session->answer_labels = std::move(s.answer_labels);
      session->matched_proteins = s.matched_proteins;
      applied_lsn[s.id] = s.applied_lsn;
      sessions_.emplace(s.id, std::move(session));
    }
    std::vector<std::pair<std::string, serve::CacheEntry>> entries;
    entries.reserve(snap.state.cache_entries.size());
    for (storage::SnapshotCacheEntry& e : snap.state.cache_entries) {
      entries.emplace_back(std::move(e.repr), e.entry);
    }
    service_.cache().Restore(entries);
    recovery_report_.cache_entries_restored = entries.size();
  }

  // 2. WAL open: scans every complete record, truncates a torn tail.
  storage::WalOptions wal_options = options_.wal;
  if (wal_options.registry == nullptr) {
    wal_options.registry = &obs_registry_;
  }
  Result<storage::Wal::OpenResult> opened =
      storage::Wal::Open(storage::WalPath(dir), fingerprint, wal_options);
  if (!opened.ok()) return opened.status();
  storage::WalReplay replay = std::move(opened.value().replay);
  wal_ = std::move(opened.value().wal);
  recovery_report_.wal_truncated_bytes = replay.truncated_bytes;
  recovery_report_.wal_torn_tail = replay.torn_tail;

  // 3. Replay past the snapshot. Records are in LSN order, so a delta
  //    always finds its session already opened (or already closed — in
  //    which case its whole history is settled and it skips).
  for (const storage::WalRecord& record : replay.records) {
    switch (record.type) {
      case storage::WalRecordType::kOpenSession: {
        if (record.lsn <= covering_lsn) {
          ++recovery_report_.skipped_records;
          break;
        }
        ExploratoryQuery query;
        storage::ByteReader in(record.body);
        BIORANK_RETURN_IF_ERROR(storage::DecodeQuery(in, query));
        // Re-materializing is deterministic (the universe and sources
        // are pure functions of the options), so the replayed session is
        // the one that was opened.
        Result<std::shared_ptr<Session>> session = MaterializeSession(query);
        if (!session.ok()) return session.status();
        sessions_[record.session_id] = std::move(session.value());
        applied_lsn[record.session_id] = 0;
        next_id = std::max(next_id, record.session_id + 1);
        ++recovery_report_.replayed_records;
        break;
      }
      case storage::WalRecordType::kCloseSession: {
        if (record.lsn <= covering_lsn) {
          ++recovery_report_.skipped_records;
          break;
        }
        sessions_.erase(record.session_id);
        ++recovery_report_.replayed_records;
        break;
      }
      case storage::WalRecordType::kApplyDelta: {
        auto it = sessions_.find(record.session_id);
        if (it == sessions_.end() ||
            record.lsn <= applied_lsn[record.session_id]) {
          ++recovery_report_.skipped_records;
          break;
        }
        ingest::EvidenceDelta delta;
        storage::ByteReader in(record.body);
        BIORANK_RETURN_IF_ERROR(storage::DecodeDelta(in, delta));
        // Structural validation ran before the record was logged, so the
        // replayed apply revalidates against the same graph state and
        // cannot fail for a delta that succeeded live.
        Result<ingest::ApplyReport> applied =
            it->second->applier->ApplyReplayed(delta, record.lsn);
        if (!applied.ok()) return applied.status();
        ++recovery_report_.replayed_records;
        break;
      }
    }
  }
  next_session_id_.store(next_id, std::memory_order_relaxed);
  for (auto& [id, session] : sessions_) {
    session->applier->AttachWal(wal_.get(), id);
  }
  recovery_report_.sessions_recovered = sessions_.size();
  recovery_report_.seconds = SecondsSince(start);
  metrics_.recovery_seconds->Observe(recovery_report_.seconds);
  metrics_.replayed_records->Add(recovery_report_.replayed_records);
  return Status::OK();
}

Result<CheckpointReport> Server::Checkpoint() {
  Tick();
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "api: server has no storage attached (set ServerOptions::"
        "storage_dir; check storage_status() for a boot failure)");
  }
  const SteadyClock::time_point start = SteadyClock::now();
  storage::SnapshotState state;
  state.fingerprint = StorageFingerprint();
  std::vector<std::pair<SessionId, std::shared_ptr<Session>>> live;
  {
    // The LSN capture and the session-set capture happen under the one
    // lock that open/close records are appended under, so the captured
    // LSN cleanly partitions session-lifecycle records into "reflected
    // in the list" and "to be replayed".
    std::lock_guard<std::mutex> lock(sessions_mu_);
    state.wal_lsn = wal_->last_lsn();
    state.next_session_id =
        next_session_id_.load(std::memory_order_relaxed);
    live.assign(sessions_.begin(), sessions_.end());
  }
  // Everything below runs off the registry lock: opens, closes, deltas,
  // and rankings all proceed concurrently. Freeze takes each applier's
  // *shared* lock, so even the frozen session keeps serving reads.
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  state.sessions.reserve(live.size());
  for (auto& [id, session] : live) {
    ingest::UpdateApplier::FrozenState frozen = session->applier->Freeze();
    storage::SnapshotSession snap;
    snap.id = id;
    snap.applied_lsn = frozen.wal_lsn;
    snap.matched_proteins = session->matched_proteins;
    snap.go_node = session->go_node;
    snap.answer_labels = session->answer_labels;
    snap.graph = std::move(frozen.graph);
    state.sessions.push_back(std::move(snap));
  }
  for (auto& [repr, entry] : service_.cache().Export()) {
    state.cache_entries.push_back({std::move(repr), entry});
  }
  // Durability barrier: every LSN the snapshot references (the covering
  // LSN and every session's applied_lsn) was appended before this point,
  // so after the sync none of them can be lost to a torn tail — which is
  // what makes resuming appends at replay.last_lsn + 1 safe (an LSN the
  // next boot's snapshot references is never reassigned).
  BIORANK_RETURN_IF_ERROR(wal_->Sync());
  CheckpointReport report;
  BIORANK_RETURN_IF_ERROR(storage::WriteSnapshotFile(
      options_.storage_dir, state, &report.path, &report.bytes));
  report.wal_lsn = state.wal_lsn;
  report.sessions = state.sessions.size();
  report.cache_entries = state.cache_entries.size();
  report.seconds = SecondsSince(start);
  metrics_.checkpoints->Add();
  metrics_.snapshot_write_seconds->Observe(report.seconds);
  return report;
}

Result<uint64_t> Server::LogSessionEventLocked(storage::WalRecordType type,
                                               SessionId id,
                                               const std::string& body) {
  return wal_->Append(type, id, body);
}

void Server::InitMetrics() {
  obs::Registry& reg = obs_registry_;
  metrics_.queries =
      reg.GetCounter("biorank_api_queries_total", "Query requests served OK");
  metrics_.batches = reg.GetCounter("biorank_api_batches_total",
                                    "RunBatch calls");
  metrics_.batch_requests = reg.GetCounter(
      "biorank_api_batch_requests_total", "Requests served inside batches");
  metrics_.graph_rankings = reg.GetCounter("biorank_api_graph_rankings_total",
                                           "RankGraph calls served OK");
  metrics_.sessions_opened =
      reg.GetCounter("biorank_api_sessions_opened_total", "Sessions opened");
  metrics_.sessions_closed = reg.GetCounter(
      "biorank_api_sessions_closed_total", "Explicit CloseSession calls");
  metrics_.sessions_evicted = reg.GetCounter(
      "biorank_api_sessions_evicted_total", "Idle-eviction closures");
  metrics_.session_queries = reg.GetCounter(
      "biorank_api_session_queries_total", "QuerySession requests served OK");
  metrics_.deltas_applied = reg.GetCounter("biorank_ingest_deltas_total",
                                           "Evidence deltas applied");
  metrics_.delta_ops = reg.GetCounter("biorank_ingest_delta_ops_total",
                                      "Ops inside applied deltas");
  metrics_.dirty_answers =
      reg.GetCounter("biorank_ingest_dirty_answers_total",
                     "Answers re-entering the pipeline after a delta");
  metrics_.invalidated_entries =
      reg.GetCounter("biorank_ingest_invalidated_entries_total",
                     "Cache entries dropped by delta invalidation");
  metrics_.refinements_started =
      reg.GetCounter("biorank_api_refinements_started_total",
                     "Anytime responses that left a handle");
  metrics_.refinements_completed =
      reg.GetCounter("biorank_api_refinements_completed_total",
                     "Handles refined to completion");
  metrics_.refinements_cancelled =
      reg.GetCounter("biorank_api_refinements_cancelled_total",
                     "CancelRefinement calls that took");
  metrics_.errors = reg.GetCounter("biorank_api_errors_total",
                                   "Requests that returned an error status");
  metrics_.slow_queries = reg.GetCounter(
      "biorank_api_slow_queries_total",
      "Requests captured by the slow-query trace ring buffer");
  metrics_.checkpoints = reg.GetCounter(
      "biorank_storage_checkpoints_total", "Snapshot files written");
  metrics_.replayed_records = reg.GetCounter(
      "biorank_storage_replayed_records_total",
      "WAL records applied during warm boots");
  metrics_.snapshot_write_seconds = reg.GetHistogram(
      "biorank_storage_snapshot_write_seconds",
      "Checkpoint wall time, capture through rename");
  metrics_.recovery_seconds = reg.GetHistogram(
      "biorank_storage_recovery_seconds",
      "Warm-boot wall time (snapshot load + WAL replay)");
  metrics_.query_seconds =
      reg.GetHistogram("biorank_api_query_seconds",
                       "End-to-end request latency, every entry point");
  metrics_.queue_seconds = reg.GetHistogram(
      "biorank_api_queue_seconds", "Admission-queue wait per request");
  metrics_.integrate_seconds = reg.GetHistogram(
      "biorank_api_integrate_seconds", "Mediator crawl + graph stitching");
  metrics_.rank_seconds = reg.GetHistogram(
      "biorank_api_rank_seconds",
      "Ranking prepare: canonicalize, cache lookup, bounds, top-k cut");
  metrics_.refine_seconds = reg.GetHistogram(
      "biorank_api_refine_seconds",
      "Ranking advance: exact factoring and MC on the survivors, per call");
  metrics_.apply_seconds = reg.GetHistogram(
      "biorank_ingest_apply_seconds", "Evidence-delta apply latency");
  // Gauges and the point-in-time state of the cache and the admission
  // queue are snapshot views: collectors flatten CacheStats and
  // AdmissionStats at TakeSnapshot() time, each from one Stats() call,
  // so the metrics read off one snapshot are mutually consistent.
  reg.AddCollector([this](obs::Snapshot& snapshot) {
    snapshot.gauges.push_back({"biorank_api_open_sessions",
                               "Currently live sessions",
                               static_cast<double>(session_count())});
    snapshot.gauges.push_back({"biorank_api_open_refinements",
                               "Currently live refinement handles",
                               static_cast<double>(refinement_count())});
    const serve::CacheStats cache = service_.cache().Stats();
    snapshot.counters.push_back({"biorank_serve_cache_hits_total",
                                 "Reliability-cache store hits", cache.hits});
    snapshot.counters.push_back({"biorank_serve_cache_misses_total",
                                 "Reliability-cache store misses",
                                 cache.misses});
    snapshot.counters.push_back({"biorank_serve_cache_insertions_total",
                                 "Reliability-cache insertions",
                                 cache.insertions});
    snapshot.counters.push_back({"biorank_serve_cache_evictions_total",
                                 "Reliability-cache LRU evictions",
                                 cache.evictions});
    snapshot.counters.push_back({"biorank_serve_cache_invalidations_total",
                                 "Reliability-cache delta invalidations",
                                 cache.invalidations});
    snapshot.gauges.push_back({"biorank_serve_cache_entries",
                               "Live reliability-cache entries",
                               static_cast<double>(cache.entries)});
    const AdmissionStats admission = admission_.Stats();
    snapshot.counters.push_back({"biorank_api_admission_admitted_total",
                                 "Requests admitted", admission.admitted});
    snapshot.counters.push_back(
        {"biorank_api_admission_rejected_deadline_total",
         "Rejections: deadline passed while queued",
         admission.rejected_deadline});
    snapshot.counters.push_back(
        {"biorank_api_admission_rejected_capacity_total",
         "Rejections: queue at capacity", admission.rejected_capacity});
    snapshot.counters.push_back({"biorank_api_admission_queued_total",
                                 "Requests that waited in the queue",
                                 admission.queued});
    snapshot.gauges.push_back({"biorank_api_admission_queue_depth",
                               "Requests waiting right now",
                               static_cast<double>(admission.queue_depth)});
    snapshot.gauges.push_back(
        {"biorank_api_admission_peak_queue_depth", "Peak queue depth",
         static_cast<double>(admission.peak_queue_depth)});
    snapshot.gauges.push_back({"biorank_api_admission_inflight",
                               "Requests being served right now",
                               static_cast<double>(admission.inflight)});
    snapshot.gauges.push_back({"biorank_api_admission_queue_wait_seconds",
                               "Cumulative admission-queue wait",
                               admission.queue_wait_s_total});
  });
}

std::string Server::MetricsText() const {
  return obs::RenderPrometheusText(obs_registry_.TakeSnapshot());
}

obs::Snapshot Server::MetricsSnapshot() const {
  return obs_registry_.TakeSnapshot();
}

namespace {

/// Clamps a caller-facing top_k to the serve layer's contract
/// (<= 0 means "rank all", k never exceeds the answer count).
int ClampTopK(int top_k, int answers) {
  return top_k > 0 ? std::min(top_k, answers) : answers;
}

/// Converts a serve-layer ranking into the response's labeled answers +
/// stats; `label(node)` supplies the answer label (graph lookup for
/// one-shot requests, captured labels for refinements and sessions).
template <typename LabelFn>
void FillRanked(const std::vector<serve::RankedCandidate>& top,
                const serve::RequestStats& stats, LabelFn label,
                QueryResponse& response) {
  response.stats = stats;
  response.top.reserve(top.size());
  for (const serve::RankedCandidate& candidate : top) {
    RankedAnswer answer;
    answer.node = candidate.node;
    answer.label = label(candidate.node);
    answer.reliability = candidate.reliability;
    answer.lower = candidate.lower;
    answer.upper = candidate.upper;
    answer.exact = candidate.exact;
    answer.resolution = candidate.resolution;
    response.top.push_back(std::move(answer));
  }
}

/// The same for a pipeline state: its current ranking, cumulative stats
/// and completeness.
template <typename LabelFn>
void FillRanked(const serve::RefinementState& state, LabelFn label,
                QueryResponse& response) {
  FillRanked(serve::CurrentRanking(state), state.stats, label, response);
  response.completeness = serve::Summarize(state);
}

/// Advances `state` under one call's per-survivor trial budget and
/// deadline and stamps timing.refine_s.
Status AdvanceWithin(serve::RankingService& service,
                     serve::RefinementState& state, int64_t trial_budget,
                     SteadyClock::time_point deadline, PhaseTiming& timing) {
  const SteadyClock::time_point start = SteadyClock::now();
  // A positive budget is one increment per call, repeated under a
  // deadline until the ranking settles or the deadline fires; no budget
  // refines every survivor to convergence, stopping between survivors
  // at the deadline.
  do {
    BIORANK_RETURN_IF_ERROR(
        serve::Advance(service, state, trial_budget, deadline));
  } while (trial_budget > 0 && deadline != SteadyClock::time_point::max() &&
           !state.complete() && SteadyClock::now() < deadline);
  timing.refine_s = SecondsSince(start);
  return Status::OK();
}

}  // namespace

template <typename Body>
Result<QueryResponse> Server::Serve(const char* entry_point, const char* span,
                                    const QueryOptions& options,
                                    obs::Counter* served, Body&& body) {
  Tick();
  const SteadyClock::time_point start = SteadyClock::now();
  const SteadyClock::time_point deadline = options.DeadlineOrMax(start);
  // The caller's trace when set, a server-owned one when slow-query
  // capture is armed, none otherwise.
  obs::Trace* trace = options.trace;
  std::unique_ptr<obs::Trace> owned;
  if (trace == nullptr && slow_log_.threshold_s() > 0.0) {
    owned = std::make_unique<obs::Trace>(
        next_trace_id_.fetch_add(1, std::memory_order_relaxed));
    trace = owned.get();
  }
  QueryResponse response;
  Status status = CheckSeed(options.seed);
  {
    // The root span binds this thread's trace context; the serve layer
    // records its phase spans under it via obs::CurrentTrace(). Closed
    // before the slow-query offer so the captured tree has durations.
    obs::SpanScope root(trace, span);
    if (status.ok()) {
      obs::SpanScope admit(trace, "api.admit");
      Result<AdmissionQueue::Ticket> ticket = admission_.Admit(deadline);
      admit.End();
      status = ticket.status();
      if (status.ok()) {
        response.timing.queue_s = ticket.value().queue_s();
        status = body(deadline, trace, response);
      }
    }
    if (status.ok()) {
      PhaseTiming& timing = response.timing;
      timing.total_s = SecondsSince(start);
      if (served != nullptr) served->Add();
      if (timing.queue_s > 0.0) metrics_.queue_seconds->Observe(timing.queue_s);
      if (timing.integrate_s > 0.0) {
        metrics_.integrate_seconds->Observe(timing.integrate_s);
      }
      if (timing.rank_s > 0.0) metrics_.rank_seconds->Observe(timing.rank_s);
      if (timing.refine_s > 0.0) {
        metrics_.refine_seconds->Observe(timing.refine_s);
      }
      metrics_.query_seconds->Observe(timing.total_s);
    }
  }
  if (!status.ok()) {
    metrics_.errors->Add();
    return status;
  }
  if (trace != nullptr &&
      slow_log_.Offer(entry_point, *trace, response.timing.total_s)) {
    metrics_.slow_queries->Add();
  }
  return response;
}

Result<QueryResponse> Server::Query(const QueryRequest& request) {
  // The mediator crawl, then the RankGraph body over the crawled graph.
  auto crawl_then_rank = [&](SteadyClock::time_point deadline,
                             obs::Trace* trace,
                             QueryResponse& response) -> Status {
    const SteadyClock::time_point integrate_start = SteadyClock::now();
    obs::SpanScope integrate(trace, "api.integrate");
    Result<ExploratoryQueryResult> run = mediator_.Run(request.query);
    integrate.End();
    if (!run.ok()) return run.status();
    response.result = std::move(run.value());
    response.timing.integrate_s = SecondsSince(integrate_start);
    return RankWithOptions(response.result.query_graph, request.options,
                           deadline, trace, response);
  };
  return Serve("Query", "api.query", request.options, metrics_.queries,
               crawl_then_rank);
}

Status Server::RankWithOptions(const QueryGraph& graph,
                               const QueryOptions& options,
                               SteadyClock::time_point deadline,
                               obs::Trace* trace, QueryResponse& response) {
  if (!options.rank) {
    response.completeness.complete = true;  // Nothing ranked, nothing open.
    return Status::OK();
  }
  obs::SpanScope rank(trace, "api.rank");
  const std::vector<NodeId>& answers = graph.answers;
  if (answers.empty()) {
    // Nothing to rank, but a malformed graph is still rejected.
    response.completeness.complete = true;
    return graph.Validate();
  }
  const SteadyClock::time_point rank_start = SteadyClock::now();
  Result<serve::RefinementState> prepared = serve::Prepare(
      service_, graph,
      ClampTopK(options.top_k, static_cast<int>(answers.size())));
  if (!prepared.ok()) return prepared.status();
  serve::RefinementState& state = prepared.value();
  response.timing.rank_s = SecondsSince(rank_start);

  // Blocking is anytime run to convergence. The one request that spends
  // nothing is anytime with neither a trial budget nor a deadline: its
  // bounds-only ranking is the answer.
  const bool blocking = options.mode == QueryMode::kBlocking;
  if (blocking || options.mc_trial_budget > 0 ||
      deadline != SteadyClock::time_point::max()) {
    BIORANK_RETURN_IF_ERROR(AdvanceWithin(
        service_, state, blocking ? 0 : options.mc_trial_budget,
        blocking ? SteadyClock::time_point::max() : deadline,
        response.timing));
  }
  FillRanked(state,
             [&graph](NodeId node) { return graph.graph.node(node).label; },
             response);
  if (state.complete()) return Status::OK();

  auto refinement = std::make_shared<Refinement>();
  refinement->labels.reserve(state.nodes.size());
  for (NodeId node : state.nodes) {
    refinement->labels.emplace(node, graph.graph.node(node).label);
  }
  refinement->state = std::move(state);
  RefinementHandle handle;
  handle.id = next_refinement_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(refinements_mu_);
    refinements_.emplace(handle.id, std::move(refinement));
  }
  metrics_.refinements_started->Add();
  response.refinement = handle;
  return Status::OK();
}

Result<QueryResponse> Server::Refine(RefinementHandle handle,
                                     const QueryOptions& options) {
  auto advance = [&](SteadyClock::time_point deadline, obs::Trace*,
                     QueryResponse& response) -> Status {
    std::shared_ptr<Refinement> refinement;
    {
      std::lock_guard<std::mutex> lock(refinements_mu_);
      auto it = refinements_.find(handle.id);
      if (it == refinements_.end()) {
        return Status::NotFound("api: no live refinement with handle " +
                                std::to_string(handle.id));
      }
      refinement = it->second;
    }

    bool complete = false;
    {
      std::lock_guard<std::mutex> lock(refinement->mu);
      // The bounds-only phase already ran, so a Refine with no budget and
      // no deadline finishes the job.
      BIORANK_RETURN_IF_ERROR(
          AdvanceWithin(service_, refinement->state, options.mc_trial_budget,
                        deadline, response.timing));
      const auto& labels = refinement->labels;
      FillRanked(refinement->state,
                 [&labels](NodeId node) {
                   auto it = labels.find(node);
                   return it != labels.end() ? it->second : std::string();
                 },
                 response);
      complete = refinement->state.complete();
    }
    if (complete) {
      // Retire the handle: later Refine calls get NotFound. A concurrent
      // Refine that also just completed loses the erase race benignly.
      bool erased = false;
      {
        std::lock_guard<std::mutex> lock(refinements_mu_);
        erased = refinements_.erase(handle.id) > 0;
      }
      if (erased) metrics_.refinements_completed->Add();
      response.refinement.id = 0;
    } else {
      response.refinement = handle;
    }
    return Status::OK();
  };
  // Refinement increments compete for the server like fresh queries do:
  // same deadline-ordered queue, same typed rejection.
  return Serve("Refine", "api.refine", options, /*served=*/nullptr, advance);
}

Status Server::CancelRefinement(RefinementHandle handle) {
  Tick();
  std::lock_guard<std::mutex> lock(refinements_mu_);
  if (refinements_.erase(handle.id) > 0) {
    metrics_.refinements_cancelled->Add();
    return Status::OK();
  }
  metrics_.errors->Add();
  return Status::NotFound("api: no live refinement with handle " +
                          std::to_string(handle.id));
}

Result<std::vector<QueryResponse>> Server::RunBatch(
    const std::vector<QueryRequest>& batch) {
  Tick();
  metrics_.batches->Add();
  std::vector<QueryResponse> responses(batch.size());
  if (batch.empty()) return responses;
  std::vector<Status> errors(batch.size());
  std::atomic<bool> failed{false};
  // Each request is independent and each ranking is a pure function of
  // its request (cache state and shard interleaving never change values),
  // so the fan-out is bit-identical to a serial loop. Per-request
  // parallelism collapses inline inside a shard (same-pool nesting), so
  // batch-level concurrency is the one fan-out.
  service_.ParallelFor(static_cast<int64_t>(batch.size()), [&](int, int64_t i) {
    Result<QueryResponse> response = Query(batch[static_cast<size_t>(i)]);
    if (response.ok()) {
      responses[static_cast<size_t>(i)] = std::move(response.value());
      // Counted per served request (not in bulk on success) so the
      // stats stay reconciled with `queries` when a batch fails
      // partway: every request Query() served still shows up here.
      metrics_.batch_requests->Add();
    } else {
      errors[static_cast<size_t>(i)] = response.status();
      failed.store(true, std::memory_order_relaxed);
    }
  });
  if (failed.load(std::memory_order_relaxed)) {
    for (const Status& status : errors) {
      if (!status.ok()) return status;  // First (lowest-index) error wins.
    }
  }
  return responses;
}

Result<QueryResponse> Server::RankGraph(const QueryGraph& graph, int top_k) {
  QueryOptions options;
  options.top_k = top_k;
  return RankGraph(graph, options);
}

Result<QueryResponse> Server::RankGraph(const QueryGraph& graph,
                                        const QueryOptions& options) {
  return Serve("RankGraph", "api.rank_graph", options,
               metrics_.graph_rankings,
               [&](SteadyClock::time_point deadline, obs::Trace* trace,
                   QueryResponse& response) {
                 return RankWithOptions(graph, options, deadline, trace,
                                        response);
               });
}

Status Server::CheckSeed(uint64_t seed) const {
  if (seed == 0 || seed == options_.ranking.seed) return Status::OK();
  return Status::InvalidArgument(
      "api: every ranking shares the canonical reliability cache and must "
      "use the server's MC seed (leave options.seed = 0)");
}

Result<std::shared_ptr<Server::Session>> Server::MaterializeSession(
    const ExploratoryQuery& query) {
  Result<ExploratoryQueryResult> run = mediator_.Run(query);
  if (!run.ok()) return run.status();
  auto session = std::make_shared<Session>();
  session->go_node = std::move(run.value().go_node);
  session->matched_proteins = run.value().matched_proteins;
  const QueryGraph& graph = run.value().query_graph;
  session->answer_labels.reserve(graph.answers.size());
  for (NodeId answer : graph.answers) {
    session->answer_labels.emplace(answer, graph.graph.node(answer).label);
  }
  session->applier = std::make_unique<ingest::UpdateApplier>(
      std::move(run.value().query_graph), &service_);
  return session;
}

Result<SessionInfo> Server::OpenSession(const QueryRequest& request) {
  const uint64_t now = Tick();
  Status seed = CheckSeed(request.options.seed);
  if (!seed.ok()) {
    metrics_.errors->Add();
    return seed;
  }
  Result<std::shared_ptr<Session>> session = MaterializeSession(request.query);
  if (!session.ok()) {
    metrics_.errors->Add();
    return session.status();
  }
  Session& live = *session.value();
  live.last_touch.store(now, std::memory_order_relaxed);
  SessionInfo info;
  info.answers = live.applier->answer_count();
  info.matched_proteins = live.matched_proteins;
  info.go_node = live.go_node;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    info.id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
    if (wal_ != nullptr) {
      // Log-then-install: the open record hits the WAL before the
      // session becomes visible, so a session a caller ever saw is a
      // session recovery will rebuild.
      storage::ByteWriter body;
      storage::EncodeQuery(request.query, body);
      Result<uint64_t> lsn = LogSessionEventLocked(
          storage::WalRecordType::kOpenSession, info.id, body.bytes());
      if (!lsn.ok()) {
        metrics_.errors->Add();
        return lsn.status();
      }
      live.applier->AttachWal(wal_.get(), info.id);
    }
    sessions_.emplace(info.id, std::move(session.value()));
  }
  metrics_.sessions_opened->Add();
  return info;
}

Result<std::shared_ptr<Server::Session>> Server::FindSession(SessionId id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("api: no live session with handle " +
                            std::to_string(id));
  }
  it->second->last_touch.store(op_clock_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  return it->second;
}

Result<QueryResponse> Server::QuerySession(SessionId id, int top_k) {
  auto rank_session = [&](SteadyClock::time_point, obs::Trace*,
                          QueryResponse& response) -> Status {
    const SteadyClock::time_point start = SteadyClock::now();
    Result<std::shared_ptr<Session>> found = FindSession(id);
    if (!found.ok()) return found.status();
    const Session& session = *found.value();
    response.result.matched_proteins = session.matched_proteins;
    const int answers = session.applier->answer_count();
    if (answers > 0) {
      Result<serve::TopKResult> top =
          session.applier->RankTopK(ClampTopK(top_k, answers));
      if (!top.ok()) return top.status();
      const auto& labels = session.answer_labels;
      FillRanked(top.value().top, top.value().stats,
                 [&labels](NodeId node) {
                   auto it = labels.find(node);
                   return it != labels.end() ? it->second : std::string();
                 },
                 response);
    }
    response.timing.rank_s = SecondsSince(start);
    return Status::OK();
  };
  return Serve("QuerySession", "api.query_session", QueryOptions{},
               metrics_.session_queries, rank_session);
}

Result<ingest::ApplyReport> Server::ApplyDelta(
    SessionId id, const ingest::EvidenceDelta& delta) {
  Tick();
  Result<std::shared_ptr<Session>> session = FindSession(id);
  if (!session.ok()) {
    metrics_.errors->Add();
    return session.status();
  }
  SteadyClock::time_point start = SteadyClock::now();
  obs::SpanScope span(obs::CurrentTrace(), "ingest.apply_delta");
  // Validated against the mediator's schema metrics first (a revised
  // source prior must name a registered entity set).
  Result<ingest::ApplyReport> report = session.value()->applier->ApplyDelta(
      delta, &mediator_.options().metrics);
  if (report.ok()) {
    const ingest::ApplyReport& applied = report.value();
    metrics_.deltas_applied->Add();
    metrics_.delta_ops->Add(static_cast<uint64_t>(applied.ops));
    metrics_.dirty_answers->Add(static_cast<uint64_t>(applied.dirty_answers));
    metrics_.invalidated_entries->Add(
        static_cast<uint64_t>(applied.invalidated_entries));
    metrics_.apply_seconds->Observe(SecondsSince(start));
    span.Counter("ops", applied.ops);
    span.Counter("dirty_answers", applied.dirty_answers);
  } else {
    metrics_.errors->Add();
  }
  return report;
}

Result<QueryGraph> Server::SessionSnapshot(SessionId id) {
  Tick();
  Result<std::shared_ptr<Session>> session = FindSession(id);
  if (!session.ok()) {
    metrics_.errors->Add();
    return session.status();
  }
  return session.value()->applier->GraphSnapshot();
}

Status Server::CloseSession(SessionId id) {
  Tick();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    metrics_.errors->Add();
    return Status::NotFound("api: no live session with handle " +
                            std::to_string(id));
  }
  if (wal_ != nullptr) {
    // Log before erase: on append failure the session stays live and the
    // caller sees the error (erasing first would close in memory while
    // recovery resurrects the session — a silent divergence).
    Result<uint64_t> lsn = LogSessionEventLocked(
        storage::WalRecordType::kCloseSession, id, std::string());
    if (!lsn.ok()) {
      metrics_.errors->Add();
      return lsn.status();
    }
  }
  sessions_.erase(it);
  metrics_.sessions_closed->Add();
  return Status::OK();
}

size_t Server::EvictIdleSessions(uint64_t min_idle_ops) {
  const uint64_t now = Tick();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    uint64_t touched = it->second->last_touch.load(std::memory_order_relaxed);
    // touched > now happens when a concurrent operation with a later
    // tick touched the session before we acquired the registry lock;
    // such a session is active, not idle (unsigned subtraction would
    // wrap and evict it).
    if (touched <= now && now - touched > min_idle_ops) {
      if (wal_ != nullptr) {
        // Best-effort: an append failure means the WAL is fail-stopped
        // (every later append errors too), so eviction proceeds in
        // memory — recovery may resurrect the session, which idle
        // eviction will then close again.
        LogSessionEventLocked(storage::WalRecordType::kCloseSession,
                              it->first, std::string());
      }
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  metrics_.sessions_evicted->Add(static_cast<uint64_t>(evicted));
  return evicted;
}

size_t Server::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

size_t Server::refinement_count() const {
  std::lock_guard<std::mutex> lock(refinements_mu_);
  return refinements_.size();
}

}  // namespace biorank::api
