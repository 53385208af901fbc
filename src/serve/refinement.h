// The one ranking pipeline of the serving layer, as three resumable steps
// over a RefinementState:
//
//   Prepare        phases 1-5: canonicalize (or take caller-held
//                  canonicals), dedup + cache lookup, deterministic
//                  bounds, the top-k cut, classification. No exact
//                  kernel, no Monte Carlo: a ranking read off the
//                  prepared state is the pure bounds-only answer.
//   Advance        phase 6: the survivors' exact (sweep, factoring) / MC
//                  fan-out, by whole shards of the deterministic trial
//                  schedule, stopping between survivors at a deadline.
//   CurrentRanking phase 8: resolved candidates by value, still-refining
//                  ones by bracket midpoint, sorted and truncated to k.
//
// Every ranking runs through these steps. A blocking ranking
// (RankingService::RankTopK / RankPrepared, api::Server's blocking
// Query and RankGraph) is Prepare plus one unbounded Advance; an anytime
// request advances under its budget and deadline and keeps the state
// behind a handle. This is the Bernecker-style incremental-rank pruning
// (PAPERS.md) built on the paper's bounds, and blocking is the special
// case that runs it to convergence — so the two can never disagree.
//
// Determinism contract: refinement state is keyed by (canonical key,
// service seed, trials-so-far). Shard i of a survivor always draws from
// the RNG stream derived from (seed, canonical hash, i) regardless of
// which increment runs it, and tallies are integers, so any increment
// schedule — one big step, many small ones, partly adopted from another
// request via the shared cache — sums to the same converged value.

#ifndef BIORANK_SERVE_REFINEMENT_H_
#define BIORANK_SERVE_REFINEMENT_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/canonical.h"
#include "core/query_graph.h"
#include "serve/ranking_service.h"
#include "util/status.h"

namespace biorank::serve {

/// Resumable state of one ranking. `uniques` point either into
/// `canonicals` (prepared from a graph: the state owns its
/// canonicalizations, which stay valid under move — the vector's heap
/// buffer moves wholesale — but not copy, so the type is move-only) or
/// into caller-held canonicals that must outlive the state.
struct RefinementState {
  RefinementState() = default;
  RefinementState(RefinementState&&) = default;
  RefinementState& operator=(RefinementState&&) = default;
  RefinementState(const RefinementState&) = delete;
  RefinementState& operator=(const RefinementState&) = delete;

  int k = 0;                          ///< Requested (clamped) top-k.
  std::vector<NodeId> nodes;          ///< Per-candidate request node ids.
  std::vector<CanonicalCandidate> canonicals;  ///< Owned, or empty.
  std::vector<UniqueState> uniques;   ///< Per unique canonical key.
  std::vector<int> unique_index;      ///< Candidate -> unique position.
  std::vector<int> refinable;         ///< Uniques still needing exact/MC.
  RequestStats stats;                 ///< Accumulated across steps.

  bool complete() const { return refinable.empty(); }
};

/// Prepares `graph.answers` for ranking: canonicalizes them (the graph
/// is validated once, by RankingService::CanonicalizeTargets) and runs
/// phases 2-5. `k` (>= 1) is clamped to the answer count. Bounds and
/// free bound-exact closures are published to the service cache, so
/// even a state that is never advanced leaves the next request on an
/// isomorphic key at the prune gate.
Result<RefinementState> Prepare(RankingService& service,
                                const QueryGraph& graph, int k);

/// Same from caller-held canonicalizations (the ingest layer keeps one
/// per live answer across deltas); phases 2-5 only.
Result<RefinementState> Prepare(
    RankingService& service, const std::vector<PreparedCandidate>& candidates,
    int k);

/// Advances every unresolved survivor by up to `trial_budget` MC trials
/// (rounded up to whole shards; <= 0 runs each survivor to convergence),
/// trying the exact kernels (TryResolveExact) first.
/// Before the fan-out, survivors adopt any further progress another
/// request published for their key (sequentially, in unique order, so
/// the cache's LRU order stays a deterministic function of the request
/// sequence). The fan-out runs on the service pool; once `deadline` has
/// passed a survivor is skipped, never interrupted mid-shard, so it keeps
/// a clean trials-so-far position. Progress is then published to the
/// cache once, in unique order.
Status Advance(RankingService& service, RefinementState& state,
               int64_t trial_budget,
               std::chrono::steady_clock::time_point deadline =
                   std::chrono::steady_clock::time_point::max());

/// The ranking the state supports right now: resolved candidates rank by
/// value; still-refining survivors rank by their bracket midpoint with
/// Resolution::kRefining and the open [lower, upper] attached; pruned
/// candidates are omitted (provably outside the top k). Sorted by the
/// one serving order (RanksBefore), truncated to the state's k.
std::vector<RankedCandidate> CurrentRanking(const RefinementState& state);

/// Completeness summary of the state (see Completeness).
Completeness Summarize(const RefinementState& state);

}  // namespace biorank::serve

#endif  // BIORANK_SERVE_REFINEMENT_H_
