// The serving-shaped hot path: batched top-k ranking of a query graph's
// answer set by reliability, scheduled so that most candidates never pay
// for an exact or Monte Carlo computation. Per candidate the trace is
//
//   canonicalize (core/canonical) -> reliability_cache lookup
//     -> deterministic bounds (core/reliability_bounds)
//     -> prune against the top-k cut
//     -> the exact DAG sweep, else factoring on small residues, else
//        shared-pool MC on the RNG stream derived from the canonical hash.
//
// Output is bit-identical at any thread count and with the cache on or
// off: every resolved value is a pure function of the candidate's
// canonical key, and pruning only ever discards candidates that are
// provably outside the top k.
//
// This file holds the service (cache, options, metrics) and the
// per-phase primitives; serve/refinement.h composes them into the one
// ranking pipeline (Prepare -> Advance -> CurrentRanking), of which
// RankTopK and RankPrepared are the run-to-convergence case.

#ifndef BIORANK_SERVE_RANKING_SERVICE_H_
#define BIORANK_SERVE_RANKING_SERVICE_H_

#include <cstdint>
#include <vector>

#include "core/canonical.h"
#include "core/query_graph.h"
#include "core/reliability_bounds.h"
#include "obs/metrics.h"
#include "serve/reliability_cache.h"
#include "util/parallel.h"
#include "util/status.h"

namespace biorank::serve {

/// How one candidate's reliability was obtained in a request.
enum class Resolution {
  kCacheValue,   ///< Canonical key had a resolved value (cache or request-local memo).
  kPruned,       ///< Bounds proved it outside the top k; never resolved.
  kBoundExact,   ///< Bounds closed (lower == upper within tolerance): value free.
  kExact,        ///< DAG sweep or factoring on the reduced canonical graph.
  kMonteCarlo,   ///< Seeded shared-pool MC on the canonical graph.
  kRefining,     ///< Anytime: MC in progress, value still a bracket.
};

/// One ranked answer of a request.
struct RankedCandidate {
  NodeId node = kInvalidNode;  ///< Answer node id in the *request's* graph.
  double reliability = 0.0;
  /// The deterministic reliability bracket the scheduler held for this
  /// candidate (lower == upper == reliability for exact resolutions;
  /// MC estimates are clamped into [lower, upper]).
  double lower = 0.0;
  double upper = 1.0;
  bool exact = false;          ///< False when the value is a converged MC estimate.
  Resolution resolution = Resolution::kPruned;
};

/// The one ranking order of the serving stack: descending reliability,
/// ties broken by ascending answer node id (a strict total order — node
/// ids are distinct within a request).
inline bool RanksBefore(const RankedCandidate& a, const RankedCandidate& b) {
  if (a.reliability != b.reliability) return a.reliability > b.reliability;
  return a.node < b.node;
}

/// Per-request scheduler counters.
struct RequestStats {
  int candidates = 0;       ///< Answer nodes in the request.
  int cache_hits = 0;       ///< Lookups served by the cache or request memo.
  int cache_misses = 0;     ///< Lookups that had to canonicalize-and-bound.
  int pruned = 0;           ///< Misses eliminated by the top-k cut.
  int bound_exact = 0;      ///< Misses resolved by closed bounds.
  int exact = 0;            ///< Misses resolved by an exact kernel.
  int monte_carlo = 0;      ///< Misses resolved by Monte Carlo.
  int64_t mc_trials = 0;    ///< Total MC trials spent.

  void Add(const RequestStats& other) {
    candidates += other.candidates;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    pruned += other.pruned;
    bound_exact += other.bound_exact;
    exact += other.exact;
    monte_carlo += other.monte_carlo;
    mc_trials += other.mc_trials;
  }

  double CacheHitRate() const {
    int lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / lookups;
  }

  /// Of the candidates that reached the prune gate (misses and
  /// bounds-only hits), the fraction the bounds eliminated before any
  /// exact/MC spend.
  double PrunedFraction() const {
    int gated = pruned + bound_exact + exact + monte_carlo;
    return gated == 0 ? 0.0 : static_cast<double>(pruned) / gated;
  }
};

/// Version of the kernels the service serves from: 1 was the traversal MC
/// kernel, 2 the 64-lane kNaive one, 3 adds the DAG sweep (bump it when its
/// cap or factoring's limits move). Served values are a function of it,
/// so api::Server folds it into its storage fingerprint and a store
/// written under another version is refused at boot.
inline constexpr uint64_t kServedEstimatorVersion = 3;

/// Bounds whose width is at most this resolve the candidate outright
/// (covers fully-reduced single-edge residues, where lower and upper
/// agree up to rounding). api::Server folds it into its storage
/// fingerprint.
inline constexpr double kBoundResolveEpsilon = 1e-12;

/// Configuration for RankingService.
struct RankingServiceOptions {
  CanonicalizeOptions canonicalize;
  ReliabilityCacheOptions cache;
  ReliabilityBoundsOptions bounds;
  /// Surviving candidates whose reduced canonical graph has at most this
  /// many edges are tried exactly: the DAG sweep, then factoring (at most
  /// 24 edges, fixed call budget) on what it declines. The rest go to
  /// Monte Carlo; 0 forces Monte Carlo.
  int exact_max_edges = 128;
  /// Theorem 3.1 parameters for the MC trial count: relative error
  /// epsilon with confidence 1 - delta (0.02 / 0.05 -> 7,896 trials).
  double mc_epsilon = 0.02;
  double mc_delta = 0.05;
  int64_t mc_shard_trials = 512;
  /// Root seed. Candidate c simulates on the stream derived from
  /// (seed, canonical hash of c) — never from request order — so cached
  /// and recomputed values are bit-identical.
  uint64_t seed = 42;
  /// Parallelism for canonicalize/bound/resolve fan-out and the MC
  /// shards: 0 = shared pool, 1 = inline, k = cap (McOptions semantics).
  int num_threads = 0;
  ThreadPool* pool = nullptr;
  /// Disable to measure the cache's contribution; results are identical.
  bool enable_cache = true;
  /// Metrics sink (obs/metrics.h), borrowed and must outlive the
  /// service. When set, the pipeline records scheduler counters
  /// (biorank_serve_*_total) and the bounds/MC phase latency histograms
  /// (biorank_serve_bounds_seconds, biorank_serve_mc_seconds) into it;
  /// null (the default) records nothing. api::Server injects its own
  /// registry here; a bare RankingService stays metrics-free.
  obs::Registry* registry = nullptr;
};

/// How settled a (possibly still-refining) ranking is. Counts are per
/// request candidate (duplicates counted once each, like RequestStats).
struct Completeness {
  int resolved = 0;   ///< Candidates with a final value (exact, cached, or converged MC).
  int bounded = 0;    ///< Candidates settled by bounds alone (pruned from the top k).
  int refining = 0;   ///< Candidates whose value is still an open bracket.
  /// Widest upper-lower bracket among the still-refining candidates
  /// (0 when none remain).
  double widest_bracket = 0.0;
  /// True once every candidate is resolved or pruned: the ranking is
  /// final and bit-identical to the blocking answer.
  bool complete = false;
};

/// The result of one top-k request: surviving candidates sorted by
/// descending reliability (ties by ascending NodeId), truncated to k.
struct TopKResult {
  std::vector<RankedCandidate> top;
  RequestStats stats;
  Completeness completeness;  ///< Of the converged ranking: complete.
};

/// A candidate whose canonicalization the caller already holds. The
/// ingest layer keeps one CanonicalCandidate per live answer across
/// deltas and re-canonicalizes only the answers a delta dirtied; ranking
/// through RankPrepared then skips phase 1 for every clean answer while
/// running the same pipeline (and therefore producing bit-identical
/// output) as RankTopK.
struct PreparedCandidate {
  NodeId node = kInvalidNode;  ///< Answer id in the caller's graph.
  const CanonicalCandidate* canonical = nullptr;  ///< Non-null, caller-owned.
};

/// Per-unique-canonical-key resolution state. All resolution work happens
/// at this level: candidates sharing a key share one computation. A
/// RefinementState (serve/refinement.h) holds these across Advance
/// steps — the entry's `trials`/`tally` pair is the resumable MC
/// position.
struct UniqueState {
  const CanonicalCandidate* canonical = nullptr;
  CacheEntry entry;
  bool have_bounds = false;
  bool exact_attempted = false;  ///< Exact kernels tried (pay them once).
  int64_t trials_spent = 0;      ///< MC trials this caller ran (vs adopted).
  Resolution resolution = Resolution::kPruned;
  Status status;
};

/// Thread-compatible ranking service; one instance owns the process-wide
/// reliability cache. RankTopK / RankPrepared may be called from multiple
/// threads (all request state is local and the cache is locked); the
/// parallelism of one request fans out across candidates and MC shards.
class RankingService {
 public:
  explicit RankingService(RankingServiceOptions options = {});

  /// Ranks `query_graph`'s answer set by reliability and returns the top
  /// k (clamped to the answer count; k < 1 is an error): Prepare plus
  /// one Advance to convergence (serve/refinement.h).
  Result<TopKResult> RankTopK(const QueryGraph& query_graph, int k);

  /// Same pipeline starting from caller-held canonicalizations (RankTopK
  /// minus phase 1). Because every resolved value is a pure function of
  /// the canonical key, the output for a graph is bit-identical whether
  /// the canonicals were computed fresh (RankTopK) or carried across
  /// deltas by the ingest layer.
  Result<TopKResult> RankPrepared(
      const std::vector<PreparedCandidate>& candidates, int k);

  /// Ingest invalidation hook: erases the given canonical keys from the
  /// reliability cache (the keys an applied EvidenceDelta orphaned) and
  /// returns how many live entries were dropped. Everything else in the
  /// cache stays warm — this is the "invalidate exactly the affected
  /// entries instead of flushing" contract. Exactness is per live graph:
  /// a caller's orphan may be isomorphic to an answer of *another* live
  /// graph on this service, in which case that graph re-resolves it on
  /// its next request — wasted work, never a wrong value (keys are pure
  /// functions of the subgraph). A service-wide key refcount would close
  /// this; at current sharing rates the conservative drop is cheaper.
  size_t OnDelta(const std::vector<CanonicalKey>& stale_keys);

  /// Canonicalizes `targets` of `graph` in parallel over the
  /// service-configured pool (pure per target; deterministic at any
  /// thread count), writing `out[i]` for `targets[i]`. The graph, the
  /// targets' membership in its answer set and their distinctness are
  /// checked once for the batch (ValidateCanonicalizeTargets) — the one
  /// validation a ranking request gets — then every target is
  /// canonicalized unchecked. Prepare's phase 1 (the whole answer set)
  /// and the ingest applier's dirty-answer re-canonicalization (a
  /// subset) share this one fan-out, so pool
  /// selection, parallelism caps, and error propagation cannot drift
  /// apart. `graph_csr` must be non-null: an unmasked flat snapshot of
  /// `graph` shared read-only by every target's restriction traversal
  /// (Prepare builds one per request; the ingest applier maintains one
  /// across deltas).
  Status CanonicalizeTargets(const QueryGraph& graph,
                             const std::vector<NodeId>& targets,
                             const CanonicalizeOptions& canonicalize,
                             std::vector<CanonicalCandidate>& out,
                             const CsrSnapshot* graph_csr);

  // --- Pipeline phase primitives -------------------------------------
  //
  // serve/refinement.h composes these into the one pipeline: Prepare
  // runs BuildUniqueStates, ClassifySurvivors and PublishEntries; Advance
  // fans TryResolveExact / AdvanceMonteCarlo out over the survivors.
  // Every ranking, blocking or anytime, executes this same code, which is
  // what makes a fully-refined anytime ranking bit-identical to the
  // blocking answer.

  /// Phases 2–3: dedup `candidates` by canonical repr, look unique keys
  /// up in the cache (when the service cache is enabled), and compute
  /// deterministic bounds for every unique that has none. `unique_index`
  /// maps candidate position -> position in `uniques`. Sequential over
  /// the dedup/lookup (deterministic hit accounting and LRU order),
  /// parallel over the bounds.
  Status BuildUniqueStates(const std::vector<PreparedCandidate>& candidates,
                           std::vector<UniqueState>& uniques,
                           std::vector<int>& unique_index,
                           RequestStats& stats);

  /// Phases 4–5: compute the top-k cut (k-th largest per-candidate lower
  /// bound, resolved values standing in as tight lowers; `k` must already
  /// be clamped to the candidate count) and classify every unresolved
  /// unique: prune below the cut, close tight bounds for free, and append
  /// the rest to `survivors`. Returns the threshold.
  double ClassifySurvivors(const std::vector<int>& unique_index,
                           std::vector<UniqueState>& uniques, int k,
                           RequestStats& stats, std::vector<int>& survivors);

  /// Phase 6a: the DAG sweep, then factoring on small residues it declined,
  /// on a survivor whose residue is within the edge budget. At most one
  /// attempt per unique (the result is deterministic, so retrying cannot
  /// change it); a FailedPrecondition from both falls through to MC.
  /// No-op when the entry already has a value or partial MC trials.
  Status TryResolveExact(UniqueState& u);

  /// Phase 6b: advance a survivor's Monte Carlo state by whole shards of
  /// the deterministic schedule PlanTrialShards(McTrialsPerCandidate(),
  /// mc_shard_trials), resuming at the entry's `trials` position. The
  /// shards run the 64-lane McOptions::Mode::kNaive kernel.
  /// `trial_budget` <= 0 runs to convergence; otherwise the increment
  /// covers the fewest whole shards totalling >= trial_budget trials.
  /// Because shard i always draws from the stream derived from (seed,
  /// canonical hash, i) and tallies are integers, any increment sequence
  /// reaching full coverage yields the bit-identical converged value the
  /// blocking path computes. On convergence sets the value (clamped to
  /// the bounds) and Resolution::kMonteCarlo; otherwise kRefining.
  Status AdvanceMonteCarlo(UniqueState& u, int64_t trial_budget);

  /// Phase 7: publish every changed unique to the cache in order
  /// (sequential, so the LRU state is a deterministic function of the
  /// request sequence). Partial (still-refining) entries publish too:
  /// their tally/trials prefix is adoptable by any later request on the
  /// same key. No-op when the service cache is disabled.
  void PublishEntries(const std::vector<UniqueState>& uniques);

  /// Runs fn(slot, i) for i in [0, n) on the configured pool under the
  /// configured parallelism cap — the one fan-out of every phase.
  void ParallelFor(int64_t n, const ThreadPool::ShardFn& fn);

  ReliabilityCache& cache() { return cache_; }
  const ReliabilityCache& cache() const { return cache_; }
  const RankingServiceOptions& options() const { return options_; }

  /// Monte Carlo trial count per irreducible candidate (Theorem 3.1
  /// applied to the configured epsilon/delta).
  int64_t McTrialsPerCandidate() const { return mc_trials_; }

  /// The registry handles the pipeline records into. Resolved once at
  /// construction when options.registry is set; all null otherwise (one
  /// branch per record site on the hot path).
  struct Metrics {
    obs::Counter* candidates = nullptr;
    obs::Counter* pruned = nullptr;
    obs::Counter* bound_exact = nullptr;
    obs::Counter* exact = nullptr;
    obs::Counter* monte_carlo = nullptr;
    obs::Counter* mc_trials = nullptr;
    obs::Histogram* bounds_seconds = nullptr;
    obs::Histogram* mc_seconds = nullptr;
  };
  const Metrics& metrics() const { return metrics_; }

 private:
  RankingServiceOptions options_;
  ReliabilityCache cache_;
  int64_t mc_trials_ = 0;
  Metrics metrics_;
};

}  // namespace biorank::serve

#endif  // BIORANK_SERVE_RANKING_SERVICE_H_
