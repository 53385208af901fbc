#include "serve/ranking_service.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "core/reliability_exact.h"
#include "core/reliability_mc.h"
#include "core/trial_bound.h"
#include "serve/refinement.h"
#include "util/rng.h"

namespace biorank::serve {

RankingService::RankingService(RankingServiceOptions options)
    : options_(options), cache_(options.cache) {
  Result<int64_t> trials =
      RequiredMcTrials(options_.mc_epsilon, options_.mc_delta);
  mc_trials_ = trials.ok() ? trials.value() : 0;  // 0 => error per request.
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    metrics_.candidates = reg.GetCounter(
        "biorank_serve_candidates_total", "Answer candidates scheduled");
    metrics_.pruned = reg.GetCounter("biorank_serve_pruned_total",
                                     "Candidates pruned by the top-k cut");
    metrics_.bound_exact =
        reg.GetCounter("biorank_serve_bound_exact_total",
                       "Candidates resolved by closed bounds");
    metrics_.exact = reg.GetCounter("biorank_serve_exact_total",
                                    "Candidates resolved by an exact kernel");
    metrics_.monte_carlo = reg.GetCounter(
        "biorank_serve_monte_carlo_total", "Candidates resolved by Monte Carlo");
    metrics_.mc_trials =
        reg.GetCounter("biorank_serve_mc_trials_total", "MC trials spent");
    metrics_.bounds_seconds = reg.GetHistogram(
        "biorank_serve_bounds_seconds",
        "Dedup + cache lookup + deterministic bounds phase latency");
    metrics_.mc_seconds = reg.GetHistogram(
        "biorank_serve_mc_seconds",
        "Exact (DAG sweep, factoring) / Monte Carlo resolve phase latency");
  }
}

void RankingService::ParallelFor(int64_t n, const ThreadPool::ShardFn& fn) {
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Global();
  pool.ParallelFor(n, fn,
                   options_.num_threads == 0
                       ? ThreadPool::kUnlimitedParallelism
                       : options_.num_threads);
}

Status RankingService::CanonicalizeTargets(
    const QueryGraph& graph, const std::vector<NodeId>& targets,
    const CanonicalizeOptions& canonicalize,
    std::vector<CanonicalCandidate>& out, const CsrSnapshot* graph_csr) {
  BIORANK_RETURN_IF_ERROR(ValidateCanonicalizeTargets(graph, targets));
  out.clear();
  out.resize(targets.size());
  ParallelFor(static_cast<int64_t>(targets.size()), [&](int, int64_t i) {
    out[static_cast<size_t>(i)] = CanonicalizeValidatedCandidate(
        graph, targets[static_cast<size_t>(i)], canonicalize, *graph_csr);
  });
  return Status::OK();
}

namespace {

/// Factoring's call budget and edge cap, for residues the sweep declined.
constexpr int64_t kExactMaxCalls = 200000;
constexpr int kFactoringMaxEdges = 24;

/// A prepared state advanced to convergence, read off as a TopKResult.
Result<TopKResult> Converge(RankingService& service,
                            Result<RefinementState> prepared) {
  if (!prepared.ok()) return prepared.status();
  RefinementState& state = prepared.value();
  BIORANK_RETURN_IF_ERROR(Advance(service, state, /*trial_budget=*/0));
  TopKResult result;
  result.top = CurrentRanking(state);
  result.stats = state.stats;
  result.completeness = Summarize(state);
  return result;
}

}  // namespace

Result<TopKResult> RankingService::RankTopK(const QueryGraph& query_graph,
                                            int k) {
  return Converge(*this, Prepare(*this, query_graph, k));
}

Result<TopKResult> RankingService::RankPrepared(
    const std::vector<PreparedCandidate>& candidates, int k) {
  return Converge(*this, Prepare(*this, candidates, k));
}

Status RankingService::BuildUniqueStates(
    const std::vector<PreparedCandidate>& candidates,
    std::vector<UniqueState>& uniques, std::vector<int>& unique_index,
    RequestStats& stats) {
  // Phase 2 — dedup by canonical repr and look the unique keys up in the
  // cache (sequential: hit/miss accounting and LRU order stay
  // deterministic). Request-local duplicates count as hits — they are
  // served from the shared computation.
  uniques.clear();
  uniques.reserve(candidates.size());
  unique_index.assign(candidates.size(), -1);
  std::unordered_map<std::string_view, int> by_repr;
  by_repr.reserve(candidates.size());
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const PreparedCandidate& c = candidates[ci];
    auto [it, inserted] = by_repr.try_emplace(
        std::string_view(c.canonical->key.repr),
        static_cast<int>(uniques.size()));
    unique_index[ci] = it->second;
    if (!inserted) {
      ++stats.cache_hits;
      continue;
    }
    UniqueState u;
    u.canonical = c.canonical;
    if (options_.enable_cache) {
      std::optional<CacheEntry> got = cache_.Get(c.canonical->key);
      if (got.has_value()) {
        ++stats.cache_hits;
        u.entry = *got;
        u.have_bounds = true;
        if (u.entry.has_value) u.resolution = Resolution::kCacheValue;
      } else {
        ++stats.cache_misses;
      }
    } else {
      ++stats.cache_misses;
    }
    uniques.push_back(std::move(u));
  }

  // Phase 3 — deterministic bounds for every unique key that has none
  // (pure per key; parallel).
  std::vector<int> need_bounds;
  for (size_t i = 0; i < uniques.size(); ++i) {
    if (!uniques[i].have_bounds) need_bounds.push_back(static_cast<int>(i));
  }
  ParallelFor(static_cast<int64_t>(need_bounds.size()), [&](int, int64_t j) {
    UniqueState& u =
        uniques[static_cast<size_t>(need_bounds[static_cast<size_t>(j)])];
    Result<ReliabilityBounds> bounds = BoundReliability(
        u.canonical->canonical, u.canonical->target, options_.bounds);
    if (!bounds.ok()) {
      u.status = bounds.status();
      return;
    }
    u.entry.lower = bounds.value().lower;
    u.entry.upper = bounds.value().upper;
    u.have_bounds = true;
  });
  for (const UniqueState& u : uniques) {
    BIORANK_RETURN_IF_ERROR(u.status);
  }
  return Status::OK();
}

double RankingService::ClassifySurvivors(const std::vector<int>& unique_index,
                                         std::vector<UniqueState>& uniques,
                                         int k, RequestStats& stats,
                                         std::vector<int>& survivors) {
  // Phase 4 — the top-k cut: the k-th largest per-candidate lower bound
  // (resolved values stand in as tight lowers). Any candidate whose
  // upper bound is strictly below this provably cannot make the top k.
  std::vector<double> lowers;
  lowers.reserve(unique_index.size());
  for (int ui : unique_index) {
    const UniqueState& u = uniques[static_cast<size_t>(ui)];
    lowers.push_back(u.entry.has_value ? u.entry.value : u.entry.lower);
  }
  std::nth_element(lowers.begin(), lowers.begin() + (k - 1), lowers.end(),
                   std::greater<double>());
  const double threshold = lowers[static_cast<size_t>(k - 1)];

  // Phase 5 — classify the unresolved uniques: prune below the cut,
  // close tight bounds for free, and queue the rest for exact/MC work.
  for (size_t i = 0; i < uniques.size(); ++i) {
    UniqueState& u = uniques[i];
    if (u.entry.has_value) continue;  // Cached value: nothing to do.
    if (u.entry.upper < threshold) {
      u.resolution = Resolution::kPruned;
      ++stats.pruned;
      continue;
    }
    if (u.entry.upper - u.entry.lower <= kBoundResolveEpsilon) {
      u.entry.has_value = true;
      u.entry.value = u.entry.lower;
      u.entry.exact = true;
      u.resolution = Resolution::kBoundExact;
      ++stats.bound_exact;
      continue;
    }
    // Mark the survivor as an open bracket now: an anytime caller can
    // read the state before any exact/MC work ran, and a default-value
    // resolution would make it indistinguishable from pruned.
    u.resolution = Resolution::kRefining;
    survivors.push_back(static_cast<int>(i));
  }
  return threshold;
}

Status RankingService::TryResolveExact(UniqueState& u) {
  if (u.entry.has_value || u.exact_attempted) return Status::OK();
  // A partial MC tally means the exact kernels already declined (or were
  // out of budget) when this key first survived; stay on the MC path
  // rather than re-paying them every increment.
  if (u.entry.trials > 0) return Status::OK();
  const QueryGraph& graph = u.canonical->canonical;
  if (graph.graph.num_edges() > options_.exact_max_edges) return Status::OK();
  u.exact_attempted = true;
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(graph);
  if (!snapshot.ok()) return snapshot.status();
  Result<double> exact =
      ExactReliabilityDagSweep(snapshot.value(), u.canonical->target);
  // Factoring takes the small residues the sweep declines.
  if (!exact.ok() && exact.status().code() == StatusCode::kFailedPrecondition &&
      graph.graph.num_edges() <= kFactoringMaxEdges) {
    exact = ExactReliabilityFactoring(graph, u.canonical->target,
                                      FactoringOptions{kExactMaxCalls});
  }
  if (exact.ok()) {
    u.entry.has_value = true;
    u.entry.value = exact.value();
    u.entry.exact = true;
    u.resolution = Resolution::kExact;
    return Status::OK();
  }
  if (exact.status().code() != StatusCode::kFailedPrecondition) {
    return exact.status();
  }
  // Declined by every exact kernel: the caller falls through to MC.
  return Status::OK();
}

Status RankingService::AdvanceMonteCarlo(UniqueState& u,
                                         int64_t trial_budget) {
  if (u.entry.has_value) return Status::OK();
  McOptions mc;
  mc.mode = McOptions::Mode::kNaive;
  mc.trials = mc_trials_;
  mc.seed = DeriveStreamSeed(options_.seed, u.canonical->key.hash);
  mc.shard_trials = options_.mc_shard_trials;
  mc.num_threads = options_.num_threads;
  mc.pool = options_.pool;
  Result<std::vector<int64_t>> plan =
      PlanTrialShards(mc.trials, mc.shard_trials);
  if (!plan.ok()) return plan.status();
  const std::vector<int64_t>& shards = plan.value();
  const int64_t num_shards = static_cast<int64_t>(shards.size());

  // Resume position: the shard prefix covering the entry's trials. The
  // serve layer only ever writes whole-prefix trial counts; an entry
  // that does not align (a foreign writer) restarts from zero rather
  // than double-counting a shard.
  int64_t shard_begin = 0;
  int64_t covered = 0;
  while (shard_begin < num_shards && covered < u.entry.trials) {
    covered += shards[shard_begin++];
  }
  if (covered != u.entry.trials) {
    u.entry.trials = 0;
    u.entry.tally = 0;
    shard_begin = 0;
  }

  int64_t shard_end = shard_begin;
  if (trial_budget <= 0) {
    shard_end = num_shards;
  } else {
    int64_t taken = 0;
    while (shard_end < num_shards && taken < trial_budget) {
      taken += shards[shard_end++];
    }
  }

  if (shard_end > shard_begin) {
    // Pack the canonical residue once and simulate on the flat arrays;
    // the tallies stay a pure function of (canonical key, seed, range).
    Result<CsrQuerySnapshot> snapshot =
        BuildCsrQuerySnapshot(u.canonical->canonical);
    if (!snapshot.ok()) return snapshot.status();
    Result<McShardTallies> tallies =
        TallyReliabilityMcShards(snapshot.value(), mc, shard_begin, shard_end);
    if (!tallies.ok()) return tallies.status();
    u.entry.tally +=
        tallies.value().counts[static_cast<size_t>(u.canonical->target)];
    u.entry.trials += tallies.value().trials;
    u.trials_spent += tallies.value().trials;
  }

  if (u.entry.trials >= mc_trials_) {
    double value = static_cast<double>(u.entry.tally) /
                   static_cast<double>(mc_trials_);
    // The deterministic bounds are ground truth; clamping keeps MC
    // noise from ever contradicting a pruning decision.
    value = std::min(std::max(value, u.entry.lower), u.entry.upper);
    u.entry.has_value = true;
    u.entry.value = value;
    u.entry.exact = false;
    u.resolution = Resolution::kMonteCarlo;
  } else {
    u.resolution = Resolution::kRefining;
  }
  return Status::OK();
}

void RankingService::PublishEntries(const std::vector<UniqueState>& uniques) {
  if (!options_.enable_cache) return;
  for (const UniqueState& u : uniques) {
    if (u.resolution == Resolution::kCacheValue) continue;  // Unchanged.
    cache_.Put(u.canonical->key, u.entry);
  }
}

size_t RankingService::OnDelta(const std::vector<CanonicalKey>& stale_keys) {
  return cache_.InvalidateKeys(stale_keys);
}

}  // namespace biorank::serve
