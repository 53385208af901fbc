#include "pipeline_copy.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string_view>
#include <utility>

#include "core/reliability_bounds.h"
#include "storage/codec.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "util/file.h"

namespace biorank::ledger {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

size_t Index(Layer layer) { return static_cast<size_t>(layer); }

double NamedLayerSeconds(const Ledger& ledger) {
  double sum = 0.0;
  for (int i = 0; i < kLayerCount; ++i) {
    if (i != static_cast<int>(Layer::kApi)) sum += ledger.seconds[i];
  }
  return sum;
}

/// Adds the wall time of its scope to one layer.
class LayerTimer {
 public:
  LayerTimer(Ledger& ledger, Layer layer)
      : ledger_(ledger), layer_(layer), start_(Clock::now()) {}
  ~LayerTimer() { ledger_.seconds[Index(layer_)] += SecondsSince(start_); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  Ledger& ledger_;
  Layer layer_;
  Clock::time_point start_;
};

/// Times one whole copy operation and books the part no named layer
/// covered to the api layer. Declared first in each operation, so it
/// also covers the destruction of the operation's locals.
class OpTimer {
 public:
  explicit OpTimer(Ledger& ledger)
      : ledger_(ledger),
        layers_before_(NamedLayerSeconds(ledger)),
        start_(Clock::now()) {}
  ~OpTimer() {
    const double total = SecondsSince(start_);
    ledger_.seconds[Index(Layer::kApi)] +=
        total - (NamedLayerSeconds(ledger_) - layers_before_);
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  Ledger& ledger_;
  double layers_before_;
  Clock::time_point start_;
};

/// api::Server's top_k clamp (<= 0 ranks all, never above the count).
int ClampTopK(int top_k, int answers) {
  return top_k > 0 ? std::min(top_k, answers) : answers;
}

/// api::Server's FillRanked: labeled answers, then the fingerprint
/// api::RankingFingerprint would take of them.
template <typename LabelFn>
Fingerprint Respond(const std::vector<serve::RankedCandidate>& top,
                    LabelFn label) {
  std::vector<api::RankedAnswer> answers;
  answers.reserve(top.size());
  for (const serve::RankedCandidate& candidate : top) {
    api::RankedAnswer answer;
    answer.node = candidate.node;
    answer.label = label(candidate.node);
    answer.reliability = candidate.reliability;
    answer.lower = candidate.lower;
    answer.upper = candidate.upper;
    answer.exact = candidate.exact;
    answer.resolution = candidate.resolution;
    answers.push_back(std::move(answer));
  }
  Fingerprint fingerprint;
  fingerprint.reserve(answers.size());
  for (const api::RankedAnswer& answer : answers) {
    fingerprint.emplace_back(answer.node, answer.reliability);
  }
  return fingerprint;
}

/// The copy's own WAL and snapshots never meet a server's, so any fixed
/// configuration fingerprint will do.
constexpr uint64_t kCopyStoreFingerprint = 0x6c65646765720001ULL;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kApi: return "api";
    case Layer::kIntegrate: return "integrate";
    case Layer::kCsr: return "csr";
    case Layer::kCanonical: return "canonical";
    case Layer::kCache: return "cache";
    case Layer::kBounds: return "bounds";
    case Layer::kPrune: return "prune";
    case Layer::kExact: return "exact";
    case Layer::kMc: return "mc";
    case Layer::kPublish: return "publish";
    case Layer::kValidate: return "ingest.validate";
    case Layer::kMutate: return "ingest.mutate";
    case Layer::kDependency: return "ingest.dependency";
    case Layer::kInvalidate: return "ingest.invalidate";
    case Layer::kWal: return "wal";
    case Layer::kCheckpoint: return "checkpoint";
    case Layer::kCount: break;
  }
  return "unknown";
}

double Ledger::TotalSeconds() const {
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum;
}

PipelineCopy::PipelineCopy(const api::Server& server)
    : server_(server),
      schema_metrics_(server.mediator().options().metrics),
      service_(server.options().ranking),
      admission_(server.options().admission),
      session_canonicalize_(service_.options().canonicalize) {
  session_canonicalize_.collect_provenance = true;
}

Result<std::unique_ptr<PipelineCopy>> PipelineCopy::Create(
    const api::Server& server, const std::string& store_dir) {
  std::unique_ptr<PipelineCopy> copy(new PipelineCopy(server));
  if (!store_dir.empty()) {
    BIORANK_RETURN_IF_ERROR(util::EnsureDir(store_dir));
    storage::WalOptions wal_options = server.options().wal;
    wal_options.registry = &copy->wal_registry_;
    Result<storage::Wal::OpenResult> opened = storage::Wal::Open(
        storage::WalPath(store_dir), kCopyStoreFingerprint, wal_options);
    if (!opened.ok()) return opened.status();
    copy->wal_ = std::move(opened.value().wal);
    copy->store_dir_ = store_dir;
  }
  return copy;
}

Result<Fingerprint> PipelineCopy::Query(const api::QueryRequest& request) {
  OpTimer op(ledger_);
  const api::QueryOptions& options = request.options;
  if (!options.rank || options.mode != api::QueryMode::kBlocking ||
      (options.seed != 0 && options.seed != service_.options().seed)) {
    return Status::Unimplemented(
        "ledger copy: Query mirrors blocking, shared-seed ranking only");
  }
  Result<api::AdmissionQueue::Ticket> ticket =
      admission_.Admit(options.DeadlineOrMax(Clock::now()));
  if (!ticket.ok()) return ticket.status();
  Result<ExploratoryQueryResult> run = [&] {
    LayerTimer timer(ledger_, Layer::kIntegrate);
    return server_.mediator().Run(request.query);
  }();
  if (!run.ok()) return run.status();
  const QueryGraph& graph = run.value().query_graph;
  ledger_.graph_edges += graph.graph.num_edges();
  const int count = static_cast<int>(graph.answers.size());
  if (count == 0) return Fingerprint();
  Result<serve::TopKResult> top =
      RankTopK(graph, ClampTopK(options.top_k, count));
  if (!top.ok()) return top.status();
  return Respond(top.value().top,
                 [&graph](NodeId node) { return graph.graph.node(node).label; });
}

Result<Fingerprint> PipelineCopy::RankGraph(const QueryGraph& graph,
                                            int top_k) {
  OpTimer op(ledger_);
  Result<api::AdmissionQueue::Ticket> ticket =
      admission_.Admit(Clock::time_point::max());
  if (!ticket.ok()) return ticket.status();
  ledger_.graph_edges += graph.graph.num_edges();
  const int count = static_cast<int>(graph.answers.size());
  if (count == 0) return Fingerprint();
  Result<serve::TopKResult> top = RankTopK(graph, ClampTopK(top_k, count));
  if (!top.ok()) return top.status();
  return Respond(top.value().top,
                 [&graph](NodeId node) { return graph.graph.node(node).label; });
}

Result<serve::TopKResult> PipelineCopy::RankTopK(const QueryGraph& graph,
                                                 int k) {
  CsrSnapshot request_csr;
  {
    LayerTimer timer(ledger_, Layer::kCsr);
    BIORANK_RETURN_IF_ERROR(graph.Validate());
    request_csr = BuildCsrSnapshot(graph.graph);
  }
  std::vector<CanonicalCandidate> canonicals;
  {
    LayerTimer timer(ledger_, Layer::kCanonical);
    BIORANK_RETURN_IF_ERROR(service_.CanonicalizeTargets(
        graph, graph.answers, service_.options().canonicalize, canonicals,
        &request_csr));
  }
  ledger_.canonicalized += static_cast<int64_t>(graph.answers.size());
  std::vector<serve::PreparedCandidate> prepared(graph.answers.size());
  for (size_t i = 0; i < prepared.size(); ++i) {
    prepared[i].node = graph.answers[i];
    prepared[i].canonical = &canonicals[i];
  }
  return RankPrepared(prepared, k);
}

Status PipelineCopy::BuildUniqueStates(
    const std::vector<serve::PreparedCandidate>& candidates,
    std::vector<serve::UniqueState>& uniques, std::vector<int>& unique_index,
    serve::RequestStats& stats) {
  const int hits_before = stats.cache_hits;
  const int misses_before = stats.cache_misses;
  uniques.clear();
  uniques.reserve(candidates.size());
  unique_index.assign(candidates.size(), -1);
  {
    LayerTimer timer(ledger_, Layer::kCache);
    std::unordered_map<std::string_view, int> by_repr;
    by_repr.reserve(candidates.size());
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      const serve::PreparedCandidate& c = candidates[ci];
      auto [it, inserted] = by_repr.try_emplace(
          std::string_view(c.canonical->key.repr),
          static_cast<int>(uniques.size()));
      unique_index[ci] = it->second;
      if (!inserted) {
        ++stats.cache_hits;
        continue;
      }
      serve::UniqueState u;
      u.canonical = c.canonical;
      if (service_.options().enable_cache) {
        std::optional<serve::CacheEntry> got =
            service_.cache().Get(c.canonical->key);
        if (got.has_value()) {
          ++stats.cache_hits;
          u.entry = *got;
          u.have_bounds = true;
          if (u.entry.has_value) u.resolution = serve::Resolution::kCacheValue;
        } else {
          ++stats.cache_misses;
        }
      } else {
        ++stats.cache_misses;
      }
      uniques.push_back(std::move(u));
    }
  }
  ledger_.cache_hits += stats.cache_hits - hits_before;
  ledger_.cache_misses += stats.cache_misses - misses_before;
  {
    LayerTimer timer(ledger_, Layer::kBounds);
    for (serve::UniqueState& u : uniques) {
      if (u.have_bounds) continue;
      Result<ReliabilityBounds> bounds = BoundReliability(
          u.canonical->canonical, u.canonical->target,
          service_.options().bounds);
      if (!bounds.ok()) return bounds.status();
      u.entry.lower = bounds.value().lower;
      u.entry.upper = bounds.value().upper;
      u.have_bounds = true;
    }
  }
  return Status::OK();
}

Result<serve::TopKResult> PipelineCopy::RankPrepared(
    const std::vector<serve::PreparedCandidate>& candidates, int k) {
  if (k < 1) return Status::InvalidArgument("ledger copy: k must be >= 1");
  if (service_.McTrialsPerCandidate() <= 0) {
    return Status::InvalidArgument("ledger copy: MC trial plan is empty");
  }
  serve::TopKResult result;
  serve::RequestStats& stats = result.stats;
  stats.candidates = static_cast<int>(candidates.size());
  if (candidates.empty()) return result;
  k = std::min(k, static_cast<int>(candidates.size()));

  std::vector<serve::UniqueState> uniques;
  std::vector<int> unique_index;
  BIORANK_RETURN_IF_ERROR(
      BuildUniqueStates(candidates, uniques, unique_index, stats));

  std::vector<int> survivors;
  {
    LayerTimer timer(ledger_, Layer::kPrune);
    service_.ClassifySurvivors(unique_index, uniques, k, stats, survivors);
  }
  ledger_.pruned += stats.pruned;
  ledger_.survivors += static_cast<int64_t>(survivors.size());
  ledger_.gated += stats.pruned + stats.bound_exact +
                   static_cast<int64_t>(survivors.size());

  for (int index : survivors) {
    serve::UniqueState& u = uniques[static_cast<size_t>(index)];
    Status status;
    {
      LayerTimer timer(ledger_, Layer::kExact);
      status = service_.TryResolveExact(u);
    }
    if (u.exact_attempted) ++ledger_.exact_attempts;
    if (!status.ok()) return status;
    if (u.entry.has_value) {
      ++ledger_.exact_successes;
      continue;
    }
    {
      LayerTimer timer(ledger_, Layer::kMc);
      status = service_.AdvanceMonteCarlo(u, /*trial_budget=*/0);
    }
    if (!status.ok()) return status;
  }
  for (int index : survivors) {
    const serve::UniqueState& u = uniques[static_cast<size_t>(index)];
    if (u.resolution == serve::Resolution::kExact) {
      ++stats.exact;
    } else {
      ++stats.monte_carlo;
      stats.mc_trials += u.trials_spent;
    }
  }
  ledger_.mc_trials += stats.mc_trials;
  {
    LayerTimer timer(ledger_, Layer::kPublish);
    service_.PublishEntries(uniques);
  }

  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const serve::UniqueState& u =
        uniques[static_cast<size_t>(unique_index[ci])];
    if (!u.entry.has_value) continue;
    serve::RankedCandidate ranked;
    ranked.node = candidates[ci].node;
    ranked.reliability = u.entry.value;
    ranked.lower = u.entry.exact ? u.entry.value : u.entry.lower;
    ranked.upper = u.entry.exact ? u.entry.value : u.entry.upper;
    ranked.exact = u.entry.exact;
    ranked.resolution = u.resolution;
    result.top.push_back(ranked);
  }
  std::sort(result.top.begin(), result.top.end(),
            [](const serve::RankedCandidate& a, const serve::RankedCandidate& b) {
              return serve::RanksBefore(a, b);
            });
  if (static_cast<int>(result.top.size()) > k) result.top.resize(k);
  return result;
}

Status PipelineCopy::Recanonicalize(Session& session,
                                    const std::vector<int>& answer_indices) {
  std::vector<NodeId> targets(answer_indices.size());
  for (size_t j = 0; j < answer_indices.size(); ++j) {
    targets[j] = session.graph.answers[static_cast<size_t>(answer_indices[j])];
  }
  std::vector<CanonicalCandidate> fresh;
  {
    LayerTimer timer(ledger_, Layer::kCanonical);
    BIORANK_RETURN_IF_ERROR(service_.CanonicalizeTargets(
        session.graph, targets, session_canonicalize_, fresh, &session.csr));
  }
  ledger_.canonicalized += static_cast<int64_t>(targets.size());
  LayerTimer timer(ledger_, Layer::kDependency);
  for (size_t j = 0; j < answer_indices.size(); ++j) {
    const int answer = answer_indices[j];
    session.index.Register(answer, fresh[j].key, fresh[j].provenance,
                           session.graph);
    session.canonicals[static_cast<size_t>(answer)] =
        std::make_unique<CanonicalCandidate>(std::move(fresh[j]));
  }
  return Status::OK();
}

Result<api::SessionId> PipelineCopy::OpenSession(
    const api::QueryRequest& request) {
  OpTimer op(ledger_);
  Result<ExploratoryQueryResult> run = [&] {
    LayerTimer timer(ledger_, Layer::kIntegrate);
    return server_.mediator().Run(request.query);
  }();
  if (!run.ok()) return run.status();
  Session session;
  session.go_node = std::move(run.value().go_node);
  session.matched_proteins = run.value().matched_proteins;
  session.graph = std::move(run.value().query_graph);
  for (NodeId answer : session.graph.answers) {
    session.labels.emplace(answer, session.graph.graph.node(answer).label);
  }
  {
    LayerTimer timer(ledger_, Layer::kCsr);
    BIORANK_RETURN_IF_ERROR(session.graph.Validate());
    session.csr = BuildCsrSnapshot(session.graph.graph);
  }
  session.canonicals.resize(session.graph.answers.size());
  std::vector<int> all(session.graph.answers.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  BIORANK_RETURN_IF_ERROR(Recanonicalize(session, all));

  const api::SessionId id = next_session_id_++;
  if (wal_ != nullptr) {
    LayerTimer timer(ledger_, Layer::kWal);
    storage::ByteWriter body;
    storage::EncodeQuery(request.query, body);
    Result<uint64_t> lsn = wal_->Append(storage::WalRecordType::kOpenSession,
                                        id, body.bytes());
    if (!lsn.ok()) return lsn.status();
  }
  sessions_.emplace(id, std::move(session));
  return id;
}

Result<Fingerprint> PipelineCopy::QuerySession(api::SessionId id, int top_k) {
  OpTimer op(ledger_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("ledger copy: no session " + std::to_string(id));
  }
  Session& session = it->second;
  ledger_.graph_edges += session.graph.graph.num_edges();
  const int answers = static_cast<int>(session.graph.answers.size());
  if (answers == 0) return Fingerprint();
  std::vector<serve::PreparedCandidate> prepared(session.canonicals.size());
  for (size_t i = 0; i < prepared.size(); ++i) {
    prepared[i].node = session.graph.answers[i];
    prepared[i].canonical = session.canonicals[i].get();
  }
  Result<serve::TopKResult> top =
      RankPrepared(prepared, ClampTopK(top_k, answers));
  if (!top.ok()) return top.status();
  const auto& labels = session.labels;
  return Respond(top.value().top, [&labels](NodeId node) {
    auto found = labels.find(node);
    return found != labels.end() ? found->second : std::string();
  });
}

Status PipelineCopy::ApplyDelta(api::SessionId id,
                                const ingest::EvidenceDelta& delta) {
  OpTimer op(ledger_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("ledger copy: no session " + std::to_string(id));
  }
  Session& session = it->second;
  {
    LayerTimer timer(ledger_, Layer::kValidate);
    BIORANK_RETURN_IF_ERROR(ingest::ValidateDeltaSchema(delta, schema_metrics_));
    if (wal_ != nullptr) {
      BIORANK_RETURN_IF_ERROR(ingest::ValidateDelta(delta, session.graph));
    }
  }
  uint64_t logged_lsn = 0;
  if (wal_ != nullptr) {
    LayerTimer timer(ledger_, Layer::kWal);
    storage::ByteWriter body;
    storage::EncodeDelta(delta, body);
    Result<uint64_t> lsn = wal_->Append(storage::WalRecordType::kApplyDelta,
                                        id, body.bytes());
    if (!lsn.ok()) return lsn.status();
    logged_lsn = lsn.value();
    ledger_.wal_bytes += static_cast<int64_t>(body.bytes().size());
  }
  Result<ingest::AppliedDelta> applied = [&] {
    LayerTimer timer(ledger_, Layer::kMutate);
    return ingest::ApplyDeltaToGraph(delta, session.graph);
  }();
  if (!applied.ok()) return applied.status();
  if (logged_lsn != 0) session.applied_lsn = logged_lsn;
  {
    LayerTimer timer(ledger_, Layer::kCsr);
    session.csr = BuildCsrSnapshot(session.graph.graph);
  }
  std::vector<int> dirty;
  std::vector<CanonicalKey> stale;
  {
    LayerTimer timer(ledger_, Layer::kDependency);
    dirty = session.index.AffectedAnswers(delta, applied.value(),
                                          session.graph);
    stale = session.index.ExclusiveKeys(dirty);
  }
  BIORANK_RETURN_IF_ERROR(Recanonicalize(session, dirty));
  {
    LayerTimer timer(ledger_, Layer::kDependency);
    stale.erase(std::remove_if(stale.begin(), stale.end(),
                               [&](const CanonicalKey& key) {
                                 return session.index.HasKey(key);
                               }),
                stale.end());
  }
  size_t dropped = 0;
  {
    LayerTimer timer(ledger_, Layer::kInvalidate);
    dropped = service_.OnDelta(stale);
  }
  ++ledger_.deltas;
  ledger_.delta_answers += static_cast<int64_t>(session.graph.answers.size());
  ledger_.dirty_answers += static_cast<int64_t>(dirty.size());
  ledger_.invalidated += static_cast<int64_t>(dropped);
  return Status::OK();
}

Status PipelineCopy::Checkpoint() {
  OpTimer op(ledger_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("ledger copy: no store attached");
  }
  LayerTimer timer(ledger_, Layer::kCheckpoint);
  storage::SnapshotState state;
  state.fingerprint = kCopyStoreFingerprint;
  state.wal_lsn = wal_->last_lsn();
  state.next_session_id = next_session_id_;
  state.sessions.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    storage::SnapshotSession snap;
    snap.id = id;
    snap.applied_lsn = session.applied_lsn;
    snap.matched_proteins = session.matched_proteins;
    snap.go_node = session.go_node;
    snap.answer_labels = session.labels;
    snap.graph = session.graph;
    snap.csr = session.csr;
    state.sessions.push_back(std::move(snap));
  }
  for (auto& [repr, entry] : service_.cache().Export()) {
    state.cache_entries.push_back({std::move(repr), entry});
  }
  BIORANK_RETURN_IF_ERROR(wal_->Sync());
  uint64_t bytes = 0;
  BIORANK_RETURN_IF_ERROR(
      storage::WriteSnapshotFile(store_dir_, state, nullptr, &bytes));
  ++ledger_.checkpoints;
  ledger_.checkpoint_bytes += static_cast<int64_t>(bytes);
  return Status::OK();
}

}  // namespace biorank::ledger
