// Typed request/response value objects of the biorank front door
// (api::Server). A QueryRequest carries the query *shape*
// (integrate/exploratory_query.h) plus a QueryOptions block holding
// every per-request serving knob — top_k, MC seed, rank toggle, serving
// mode, deadline/budgets — that used to be baked into the query or
// hand-threaded through the serving stack. A QueryResponse carries the
// ranked answers (reliability values *and* the deterministic bounds the
// scheduler held), a completeness summary, a refinement handle for
// anytime requests, per-phase timing, and the request's cache hit/miss
// counters, so callers observe the serving layer without touching it.

#ifndef BIORANK_API_QUERY_H_
#define BIORANK_API_QUERY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "integrate/exploratory_query.h"
#include "integrate/mediator.h"
#include "serve/ranking_service.h"
#include "serve/refinement.h"
#include "util/status.h"

namespace biorank::obs {
class Trace;
}  // namespace biorank::obs

namespace biorank::api {

/// The api layer speaks the library's Status/Result vocabulary; the
/// aliases make the front-door surface self-contained for callers that
/// include only api/ headers.
using Status = ::biorank::Status;
using StatusCode = ::biorank::StatusCode;
template <typename T>
using Result = ::biorank::Result<T>;

/// How a request trades answer finality against latency.
enum class QueryMode {
  /// Resolve every surviving candidate to its final value before
  /// returning — the pre-anytime semantics and the default.
  kBlocking,
  /// Return as soon as the deterministic bounds phase (plus whatever MC
  /// the deadline/budget allowed) is done. Unresolved answers come back
  /// as brackets with Resolution::kRefining, and the response carries a
  /// RefinementHandle that Server::Refine advances incrementally. A
  /// fully refined anytime ranking is bit-identical to kBlocking.
  kAnytime,
};

/// Per-request serving knobs, factored out of QueryRequest so every
/// entry point (Query, RankGraph, Refine) takes one block instead of
/// loose fields.
struct QueryOptions {
  /// How many top-ranked answers to return; <= 0 ranks the full answer
  /// set (both clamp to the answer count).
  int top_k = 0;
  /// Monte Carlo root seed for irreducible residues. 0 (or the server's
  /// own seed) = the server's canonical seed, served through the shared
  /// reliability cache. Any other seed is kInvalidArgument at every
  /// entry point: cached values are pure functions of (key, seed), so
  /// the one shared cache serves one seed.
  uint64_t seed = 0;
  /// When false, only materialize the integrated query graph (the
  /// Mediator::Run half); the response carries no ranking.
  bool rank = true;
  /// Blocking (default) vs anytime serving; see QueryMode.
  QueryMode mode = QueryMode::kBlocking;
  /// Per-request latency budget in seconds, counted from when the server
  /// accepts the call; <= 0 means no budget. Combined with `deadline`
  /// (below) the effective deadline is whichever fires first.
  double budget_s = 0.0;
  /// Absolute steady-clock deadline; the epoch default means none.
  /// Admission rejects a request whose deadline passes while queued with
  /// kDeadlineExceeded; in kAnytime mode the refinement loop stops at
  /// the deadline and returns whatever is settled.
  std::chrono::steady_clock::time_point deadline{};
  /// kAnytime only: MC trials to spend per surviving candidate per
  /// increment (initial call and each Refine). <= 0 with no deadline
  /// means bounds-only (spend nothing); <= 0 with a deadline means
  /// refine to convergence or deadline, whichever first.
  int64_t mc_trial_budget = 0;
  /// Request tracing (obs/trace.h): when non-null, the serving layers
  /// record nested spans (admit, integrate, bounds, prune, MC,
  /// refinement increments) into this caller-owned trace. Borrowed for
  /// the duration of the call. Zero-perturbation contract:
  /// tracing only observes — rankings are bit-identical with or
  /// without it. Null (the default) costs one branch per span site.
  obs::Trace* trace = nullptr;

  /// The effective absolute deadline for a request accepted at `start`:
  /// min(deadline, start + budget_s), or time_point::max() when neither
  /// is set.
  std::chrono::steady_clock::time_point DeadlineOrMax(
      std::chrono::steady_clock::time_point start) const {
    auto effective = std::chrono::steady_clock::time_point::max();
    if (deadline != std::chrono::steady_clock::time_point{}) {
      effective = deadline;
    }
    if (budget_s > 0.0) {
      auto budgeted =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(budget_s));
      if (budgeted < effective) effective = budgeted;
    }
    return effective;
  }
};

/// One typed query request against api::Server.
struct QueryRequest {
  /// The exploratory query shape (Definition 2.2): input entity match and
  /// output entity sets. Shape only — serving knobs live in `options`.
  ExploratoryQuery query;
  /// Every per-request serving knob (top-k, seed, mode, deadline...).
  QueryOptions options;
};

/// One ranked answer of a response: the serve-layer resolution plus the
/// answer node's label, so session responses are useful without a graph.
struct RankedAnswer {
  NodeId node = kInvalidNode;
  std::string label;           ///< The answer record's label (GO term id).
  double reliability = 0.0;
  double lower = 0.0;          ///< Deterministic reliability bracket the
  double upper = 1.0;          ///< scheduler held (== value when exact).
  bool exact = false;
  serve::Resolution resolution = serve::Resolution::kPruned;
};

/// Wall-clock spent per pipeline phase of one request.
struct PhaseTiming {
  double queue_s = 0.0;      ///< Waiting in the admission queue.
  double integrate_s = 0.0;  ///< Source fan-out + graph stitching.
  /// Ranking prepare (canonicalize, cache lookup, bounds, top-k cut);
  /// a session query's whole ranking pass.
  double rank_s = 0.0;
  /// Ranking advance (exact kernels and MC on the survivors), in both
  /// modes: a blocking request's run to convergence, an anytime call's
  /// share of refinement.
  double refine_s = 0.0;
  double total_s = 0.0;
};

/// Caller-side handle to a server-resident anytime refinement. id == 0
/// means "nothing to refine" (blocking responses, and anytime responses
/// that resolved completely). Handles are never reused; a finished or
/// cancelled handle fails Server::Refine with NotFound.
struct RefinementHandle {
  uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// The typed response to a QueryRequest (or a session query).
struct QueryResponse {
  /// The materialized integration result: query graph, GO-term -> node
  /// map, matched-protein count. Session queries fill only
  /// matched_proteins: the live graph stays resident server-side (use
  /// Server::SessionSnapshot for a copy) and the go_node map was already
  /// delivered once by OpenSession's SessionInfo.
  ExploratoryQueryResult result;
  std::vector<RankedAnswer> top;
  /// Scheduler counters of the ranking pass (cache hits/misses, pruned,
  /// per-phase resolution counts). Zero when the request skipped ranking.
  serve::RequestStats stats;
  PhaseTiming timing;
  /// How settled the ranking is. Blocking responses are always complete;
  /// anytime responses may carry open brackets (see `top`'s kRefining
  /// entries and `refinement`).
  serve::Completeness completeness;
  /// Valid iff this anytime ranking still has refining answers; pass to
  /// Server::Refine to advance it.
  RefinementHandle refinement;
};

/// A live query session handle. Handles are never reused; a stale handle
/// (closed or evicted session) fails lookups with NotFound.
using SessionId = uint64_t;

/// What OpenSession returns: the handle plus the crawl bookkeeping a
/// delta-building caller needs.
struct SessionInfo {
  SessionId id = 0;
  int answers = 0;             ///< Answer-set size (fixed for the session).
  int matched_proteins = 0;
  /// GO-term ontology index -> answer node id in the live graph.
  std::unordered_map<int, NodeId> go_node;
};

/// The paper's canonical request: the k highest-reliability functions of
/// a protein (k <= 0 ranks all). Replaces the removed
/// MakeProteinFunctionTopKQuery + ExploratoryQuery::top_k pairing.
QueryRequest MakeProteinFunctionRequest(const std::string& gene_symbol,
                                        int top_k = 0);

/// The (node, reliability) pairs of a response — the bit-identity
/// fingerprint every determinism gate compares (RunBatch vs serial,
/// session vs from-scratch rebuild, cached vs cache-off). One shared
/// definition so the gates can never diverge in what they compare.
std::vector<std::pair<NodeId, double>> RankingFingerprint(
    const QueryResponse& response);

}  // namespace biorank::api

#endif  // BIORANK_API_QUERY_H_
