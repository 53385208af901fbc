// The benchmark-side copy of api::Server's request pipelines, built only
// from public layer functions and timed call by call. It composes the
// calls Server::Query, Server::RankGraph, Server::QuerySession,
// Server::ApplyDelta (through UpdateApplier) and Server::Checkpoint make,
// in the same order, on its own RankingService
// (built from the server's ranking options, so it owns a separate cache)
// and, for durable servers, its own WAL and snapshot directory.
//
// Every call returns the ranking fingerprint the Server would return for
// the same input, so the trace run asserts bit-identity and the copy can
// never drift from the program it measures. Each layer's self time
// accumulates in a Ledger; whatever an operation spends outside the named
// layers (admission, handle bookkeeping, labels, the final sort) is the
// api layer's, so the layers partition the copy's wall time exactly.
// Run the server with ranking.num_threads = 1 so that every fan-out is
// inline and the self times of serial calls add up.

#ifndef BIORANK_BENCH_LEDGER_PIPELINE_COPY_H_
#define BIORANK_BENCH_LEDGER_PIPELINE_COPY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/admission.h"
#include "api/query.h"
#include "api/server.h"
#include "bench_support.h"
#include "core/canonical.h"
#include "core/csr_snapshot.h"
#include "ingest/delta.h"
#include "ingest/dependency_index.h"
#include "obs/metrics.h"
#include "serve/ranking_service.h"
#include "storage/wal.h"

namespace biorank::ledger {

/// The layers a request's time is attributed to. Names (LayerName) are
/// the metric prefixes the benchmark reports.
enum class Layer : int {
  kApi,         ///< Admission, bookkeeping, labels, final sort.
  kIntegrate,   ///< Mediator::Run (source crawl + graph stitching).
  kCsr,         ///< QueryGraph::Validate + BuildCsrSnapshot.
  kCanonical,   ///< RankingService::CanonicalizeTargets.
  kCache,       ///< Dedup + ReliabilityCache::Get.
  kBounds,      ///< BoundReliability.
  kPrune,       ///< RankingService::ClassifySurvivors.
  kExact,       ///< RankingService::TryResolveExact.
  kMc,          ///< RankingService::AdvanceMonteCarlo.
  kPublish,     ///< PublishEntries / ReliabilityCache::Put.
  kValidate,    ///< ValidateDeltaSchema + ValidateDelta.
  kMutate,      ///< ApplyDeltaToGraph.
  kDependency,  ///< AffectedAnswers, ExclusiveKeys, HasKey, Register.
  kInvalidate,  ///< RankingService::OnDelta.
  kWal,         ///< EncodeDelta + Wal::Append.
  kCheckpoint,  ///< Checkpoint capture + Wal::Sync + WriteSnapshotFile.
  kCount,
};

inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

const char* LayerName(Layer layer);

/// Self time per layer plus the work counters the ledger reports.
struct Ledger {
  std::array<double, kLayerCount> seconds{};
  int64_t graph_edges = 0;        ///< Sum of request-graph edge counts.
  int64_t canonicalized = 0;      ///< Candidates canonicalized.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t pruned = 0;
  int64_t gated = 0;              ///< Uniques that reached the prune gate.
  int64_t survivors = 0;
  int64_t exact_attempts = 0;     ///< Factoring runs.
  int64_t exact_successes = 0;
  int64_t mc_trials = 0;
  int64_t deltas = 0;
  int64_t delta_answers = 0;      ///< Session answers seen by deltas.
  int64_t dirty_answers = 0;
  int64_t invalidated = 0;        ///< Cache entries dropped by deltas.
  int64_t wal_bytes = 0;          ///< Encoded delta bodies appended.
  int64_t checkpoints = 0;
  int64_t checkpoint_bytes = 0;

  double TotalSeconds() const;
};

/// See the file comment.
class PipelineCopy {
 public:
  /// `server` supplies the mediator, its schema metrics and the ranking
  /// options; it must outlive the copy. A non-empty `store_dir` gives the
  /// copy a WAL (server.options().wal) and checkpoint directory there.
  static Result<std::unique_ptr<PipelineCopy>> Create(
      const api::Server& server, const std::string& store_dir);

  PipelineCopy(const PipelineCopy&) = delete;
  PipelineCopy& operator=(const PipelineCopy&) = delete;

  /// Server::Query, blocking.
  Result<Fingerprint> Query(const api::QueryRequest& request);

  /// Server::RankGraph(graph, top_k), blocking.
  Result<Fingerprint> RankGraph(const QueryGraph& graph, int top_k);

  /// Server::OpenSession; returns the copy's session id (assigned in the
  /// same order as the server's).
  Result<api::SessionId> OpenSession(const api::QueryRequest& request);
  Result<Fingerprint> QuerySession(api::SessionId id, int top_k);
  Status ApplyDelta(api::SessionId id, const ingest::EvidenceDelta& delta);
  Status Checkpoint();

  const Ledger& ledger() const { return ledger_; }
  const serve::RankingService& service() const { return service_; }
  /// Zeroes the ledger (after set-up, before the measured inputs).
  void ResetLedger() { ledger_ = Ledger(); }

 private:
  struct Session {
    QueryGraph graph;
    CsrSnapshot csr;
    std::vector<std::unique_ptr<CanonicalCandidate>> canonicals;
    ingest::DependencyIndex index;
    std::unordered_map<int, NodeId> go_node;
    std::unordered_map<NodeId, std::string> labels;
    int matched_proteins = 0;
    uint64_t applied_lsn = 0;
  };

  explicit PipelineCopy(const api::Server& server);

  /// RankingService::RankTopK (validate + flat snapshot + canonicalize,
  /// then RankPrepared).
  Result<serve::TopKResult> RankTopK(const QueryGraph& graph, int k);
  /// RankingService::RankPrepared, phase by phase.
  Result<serve::TopKResult> RankPrepared(
      const std::vector<serve::PreparedCandidate>& candidates, int k);
  /// RankingService::BuildUniqueStates with the cache and bounds halves
  /// timed apart.
  Status BuildUniqueStates(const std::vector<serve::PreparedCandidate>& candidates,
                           std::vector<serve::UniqueState>& uniques,
                           std::vector<int>& unique_index,
                           serve::RequestStats& stats);
  /// UpdateApplier::Recanonicalize: canonicalize the given answers of the
  /// live graph and re-register them in the dependency index.
  Status Recanonicalize(Session& session,
                        const std::vector<int>& answer_indices);

  Ledger ledger_;
  const api::Server& server_;
  const ProbabilisticMetrics& schema_metrics_;
  serve::RankingService service_;
  api::AdmissionQueue admission_;
  CanonicalizeOptions session_canonicalize_;

  std::string store_dir_;
  obs::Registry wal_registry_;
  std::unique_ptr<storage::Wal> wal_;
  api::SessionId next_session_id_ = 1;
  std::map<api::SessionId, Session> sessions_;
};

}  // namespace biorank::ledger

#endif  // BIORANK_BENCH_LEDGER_PIPELINE_COPY_H_
