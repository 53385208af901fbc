#include "ingest/update_applier.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "storage/codec.h"

namespace biorank::ingest {

UpdateApplier::UpdateApplier(QueryGraph graph,
                             serve::RankingService* service)
    : graph_(std::move(graph)), service_(service) {
  init_status_ = graph_.Validate();
  if (!init_status_.ok()) return;
  csr_ = BuildCsrSnapshot(graph_.graph);
  Init();
}

UpdateApplier::UpdateApplier(QueryGraph graph,
                             serve::RankingService* service,
                             CsrSnapshot preloaded_csr, uint64_t applied_lsn)
    : graph_(std::move(graph)), service_(service),
      csr_(std::move(preloaded_csr)), last_wal_lsn_(applied_lsn) {
  init_status_ = graph_.Validate();
  if (!init_status_.ok()) return;
  Init();
}

void UpdateApplier::Init() {
  canonicalize_ = service_->options().canonicalize;
  canonicalize_.collect_provenance = true;
  canonicals_.resize(graph_.answers.size());
  std::vector<int> all(graph_.answers.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  init_status_ = Recanonicalize(all);
}

Status UpdateApplier::Recanonicalize(
    const std::vector<int>& answer_indices) {
  std::vector<NodeId> targets(answer_indices.size());
  for (size_t j = 0; j < answer_indices.size(); ++j) {
    targets[j] =
        graph_.answers[static_cast<size_t>(answer_indices[j])];
  }
  std::vector<CanonicalCandidate> fresh;
  BIORANK_RETURN_IF_ERROR(service_->CanonicalizeTargets(
      graph_, targets, canonicalize_, fresh, &csr_));
  for (size_t j = 0; j < answer_indices.size(); ++j) {
    int answer = answer_indices[j];
    index_.Register(answer, fresh[j].key, fresh[j].provenance, graph_);
    canonicals_[static_cast<size_t>(answer)] =
        std::make_unique<CanonicalCandidate>(std::move(fresh[j]));
  }
  return Status::OK();
}

Result<ApplyReport> UpdateApplier::ApplyDelta(
    const EvidenceDelta& delta, const ProbabilisticMetrics* metrics) {
  std::unique_lock<std::shared_mutex> writer(mu_);
  return ApplyLocked(delta, metrics, /*replay_lsn=*/0);
}

Result<ApplyReport> UpdateApplier::ApplyReplayed(
    const EvidenceDelta& delta, uint64_t lsn,
    const ProbabilisticMetrics* metrics) {
  std::unique_lock<std::shared_mutex> writer(mu_);
  return ApplyLocked(delta, metrics, lsn);
}

void UpdateApplier::AttachWal(storage::Wal* wal, uint64_t session_id) {
  std::unique_lock<std::shared_mutex> writer(mu_);
  wal_ = wal;
  wal_session_id_ = session_id;
}

uint64_t UpdateApplier::last_wal_lsn() const {
  std::shared_lock<std::shared_mutex> reader(mu_);
  return last_wal_lsn_;
}

UpdateApplier::FrozenState UpdateApplier::Freeze() const {
  std::shared_lock<std::shared_mutex> reader(mu_);
  FrozenState frozen;
  frozen.graph = graph_;
  frozen.csr = csr_;
  frozen.wal_lsn = last_wal_lsn_;
  return frozen;
}

Result<ApplyReport> UpdateApplier::ApplyLocked(
    const EvidenceDelta& delta, const ProbabilisticMetrics* metrics,
    uint64_t replay_lsn) {
  BIORANK_RETURN_IF_ERROR(init_status_);
  // Schema checks here; ApplyDeltaToGraph runs the structural pass, so
  // each delta is validated exactly once per tier.
  if (metrics != nullptr) {
    BIORANK_RETURN_IF_ERROR(ValidateDeltaSchema(delta, *metrics));
  }
  uint64_t logged_lsn = replay_lsn;
  if (wal_ != nullptr && replay_lsn == 0) {
    // Log-then-apply. Structural validation runs *before* the append so
    // a delta that would be rejected never reaches the log — which is
    // what lets recovery apply every logged delta unconditionally.
    // ApplyDeltaToGraph revalidates below; the duplicate pass is cheap
    // next to re-canonicalization and keeps its no-mutation-on-error
    // contract intact.
    BIORANK_RETURN_IF_ERROR(ValidateDelta(delta, graph_));
    storage::ByteWriter body;
    storage::EncodeDelta(delta, body);
    Result<uint64_t> lsn = wal_->Append(storage::WalRecordType::kApplyDelta,
                                        wal_session_id_, body.bytes());
    if (!lsn.ok()) return lsn.status();
    logged_lsn = lsn.value();
  }
  Result<AppliedDelta> applied = ApplyDeltaToGraph(delta, graph_);
  if (!applied.ok()) return applied.status();
  if (logged_lsn != 0) last_wal_lsn_ = logged_lsn;

  // The graph mutated: refresh the flat snapshot before anything
  // traverses it (re-canonicalization below reads csr_).
  csr_ = BuildCsrSnapshot(graph_.graph);

  ApplyReport report;
  report.ops = delta.size();
  report.nodes_added = static_cast<int>(delta.add_nodes.size());
  report.edges_added = static_cast<int>(delta.add_edges.size());
  report.edges_removed = static_cast<int>(delta.remove_edges.size());
  report.edges_reweighted = static_cast<int>(delta.reweight_edges.size());
  report.node_probs_revised =
      static_cast<int>(delta.revise_node_probs.size());
  report.source_priors_revised =
      static_cast<int>(delta.revise_source_priors.size());

  std::vector<int> dirty =
      index_.AffectedAnswers(delta, applied.value(), graph_);
  report.dirty_answers = static_cast<int>(dirty.size());
  report.clean_answers =
      static_cast<int>(graph_.answers.size() - dirty.size());

  // Candidate orphans must be collected before re-registration
  // overwrites the dirty answers' old keys in the index.
  std::vector<CanonicalKey> stale = index_.ExclusiveKeys(dirty);

  Status recanonicalized = Recanonicalize(dirty);
  if (!recanonicalized.ok()) {
    // The graph mutated but some dirty answer failed to re-canonicalize:
    // the live state is no longer serveable. Poison the applier so every
    // later call surfaces the failure instead of stale rankings.
    init_status_ = recanonicalized;
    return recanonicalized;
  }

  // A dirty answer can re-derive its old key unchanged (a no-op
  // revision, a clamp that left every probability alone); such keys are
  // registered again now and must not be erased from the cache.
  stale.erase(std::remove_if(stale.begin(), stale.end(),
                             [&](const CanonicalKey& key) {
                               return index_.HasKey(key);
                             }),
              stale.end());
  report.stale_keys = stale.size();

  report.invalidated_entries = service_->OnDelta(stale);
  return report;
}

Result<serve::TopKResult> UpdateApplier::RankTopK(int k) const {
  std::shared_lock<std::shared_mutex> reader(mu_);
  BIORANK_RETURN_IF_ERROR(init_status_);
  std::vector<serve::PreparedCandidate> prepared(canonicals_.size());
  for (size_t i = 0; i < canonicals_.size(); ++i) {
    prepared[i].node = graph_.answers[i];
    prepared[i].canonical = canonicals_[i].get();
  }
  return service_->RankPrepared(prepared, k);
}

QueryGraph UpdateApplier::GraphSnapshot() const {
  std::shared_lock<std::shared_mutex> reader(mu_);
  return graph_;
}

int UpdateApplier::answer_count() const {
  std::shared_lock<std::shared_mutex> reader(mu_);
  return static_cast<int>(graph_.answers.size());
}

}  // namespace biorank::ingest
