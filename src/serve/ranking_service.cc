#include "serve/ranking_service.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/reliability_exact.h"
#include "core/reliability_mc.h"
#include "core/trial_bound.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace biorank::serve {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

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
                                    "Candidates resolved by factoring");
    metrics_.monte_carlo = reg.GetCounter(
        "biorank_serve_monte_carlo_total", "Candidates resolved by Monte Carlo");
    metrics_.mc_trials =
        reg.GetCounter("biorank_serve_mc_trials_total", "MC trials spent");
    metrics_.bounds_seconds = reg.GetHistogram(
        "biorank_serve_bounds_seconds",
        "Dedup + cache lookup + deterministic bounds phase latency");
    metrics_.mc_seconds = reg.GetHistogram(
        "biorank_serve_mc_seconds",
        "Exact-factoring / Monte Carlo resolve phase latency");
  }
}

Status RankingService::CanonicalizeTargets(
    const QueryGraph& graph, const std::vector<NodeId>& targets,
    const CanonicalizeOptions& canonicalize,
    std::vector<CanonicalCandidate>& out, const CsrSnapshot* graph_csr) {
  BIORANK_RETURN_IF_ERROR(ValidateCanonicalizeTargets(graph, targets));
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Global();
  const int max_parallelism = options_.num_threads == 0
                                  ? ThreadPool::kUnlimitedParallelism
                                  : options_.num_threads;
  out.clear();
  out.resize(targets.size());
  pool.ParallelFor(
      static_cast<int64_t>(targets.size()),
      [&](int, int64_t i) {
        out[static_cast<size_t>(i)] = CanonicalizeValidatedCandidate(
            graph, targets[static_cast<size_t>(i)], canonicalize, graph_csr);
      },
      max_parallelism);
  return Status::OK();
}

Result<TopKResult> RankingService::RankTopK(const QueryGraph& query_graph,
                                            int k) {
  return RankTopK(query_graph, query_graph.answers, k);
}

Result<TopKResult> RankingService::RankTopK(const QueryGraph& query_graph,
                                            const std::vector<NodeId>& targets,
                                            int k) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  if (k < 1) return Status::InvalidArgument("serve: k must be >= 1");
  if (mc_trials_ <= 0) {
    // Also checked in RankPrepared; here it precedes the phase-1 fan-out
    // so a misconfigured service fails in O(1), not O(answers).
    return Status::InvalidArgument(
        "serve: mc_epsilon must be in (0,1] and mc_delta in (0,1)");
  }
  const std::vector<NodeId>& answers = targets;
  if (&targets != &query_graph.answers) {
    BIORANK_RETURN_IF_ERROR(ValidateTargets(query_graph, targets));
  }

  // Phase 1 — canonicalize every candidate (pure per candidate, so the
  // fan-out is deterministic at any thread count). One flat snapshot of
  // the request graph serves every target's restriction traversal.
  std::vector<CanonicalCandidate> canonicals;
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.canonicalize");
    const CsrSnapshot request_csr = BuildCsrSnapshot(query_graph.graph);
    BIORANK_RETURN_IF_ERROR(CanonicalizeTargets(query_graph, answers,
                                                options_.canonicalize,
                                                canonicals, &request_csr));
    span.Counter("targets", static_cast<int64_t>(answers.size()));
  }

  std::vector<PreparedCandidate> prepared(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    prepared[i].node = answers[i];
    prepared[i].canonical = &canonicals[i];
  }
  return RankPrepared(prepared, k);
}

Status RankingService::ValidateTargets(const QueryGraph& graph,
                                       const std::vector<NodeId>& targets) {
  // A shard's (or anytime request's) slice must be a distinct subset of
  // the graph's answer set: anything else means the caller and the
  // materialized graph disagree, which would silently rank the wrong
  // universe.
  std::unordered_set<NodeId> answer_set(graph.answers.begin(),
                                        graph.answers.end());
  std::unordered_set<NodeId> seen;
  seen.reserve(targets.size());
  for (NodeId target : targets) {
    if (answer_set.find(target) == answer_set.end()) {
      return Status::InvalidArgument(
          "serve: ranking target " + std::to_string(target) +
          " is not an answer of the query graph");
    }
    if (!seen.insert(target).second) {
      return Status::InvalidArgument("serve: duplicate ranking target " +
                                     std::to_string(target));
    }
  }
  return Status::OK();
}

Status RankingService::BuildUniqueStates(
    const std::vector<PreparedCandidate>& candidates,
    std::vector<UniqueState>& uniques, std::vector<int>& unique_index,
    RequestStats& stats) {
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Global();
  const int max_parallelism = options_.num_threads == 0
                                  ? ThreadPool::kUnlimitedParallelism
                                  : options_.num_threads;

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
  pool.ParallelFor(
      static_cast<int64_t>(need_bounds.size()),
      [&](int, int64_t j) {
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
      },
      max_parallelism);
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
    if (u.entry.upper - u.entry.lower <= options_.bound_resolve_epsilon) {
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
  // A partial MC tally means factoring already failed (or was out of
  // budget) when this key first survived; stay on the MC path rather
  // than re-paying the factoring budget every increment.
  if (u.entry.trials > 0) return Status::OK();
  const QueryGraph& graph = u.canonical->canonical;
  if (graph.graph.num_edges() > options_.exact_max_edges) return Status::OK();
  u.exact_attempted = true;
  FactoringOptions factoring;
  factoring.max_calls = options_.exact_max_calls;
  Result<double> exact =
      ExactReliabilityFactoring(graph, u.canonical->target, factoring);
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
  // Too complex to factor within budget: the caller falls through to MC.
  return Status::OK();
}

Status RankingService::AdvanceMonteCarlo(UniqueState& u,
                                         int64_t trial_budget) {
  if (u.entry.has_value) return Status::OK();
  McOptions mc;
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

Result<TopKResult> RankingService::RankPrepared(
    const std::vector<PreparedCandidate>& candidates, int k) {
  if (k < 1) return Status::InvalidArgument("serve: k must be >= 1");
  if (mc_trials_ <= 0) {
    return Status::InvalidArgument(
        "serve: mc_epsilon must be in (0,1] and mc_delta in (0,1)");
  }
  for (const PreparedCandidate& c : candidates) {
    if (c.canonical == nullptr) {
      return Status::InvalidArgument(
          "serve: prepared candidate without a canonicalization");
    }
  }

  TopKResult result;
  RequestStats& stats = result.stats;
  stats.candidates = static_cast<int>(candidates.size());
  if (candidates.empty()) return result;
  k = std::min(k, static_cast<int>(candidates.size()));

  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Global();
  const int max_parallelism = options_.num_threads == 0
                                  ? ThreadPool::kUnlimitedParallelism
                                  : options_.num_threads;

  // Phases 2–3 — dedup, cache lookup, deterministic bounds.
  std::vector<UniqueState> uniques;
  std::vector<int> unique_index;
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.cache_bounds");
    const auto bounds_start = std::chrono::steady_clock::now();
    BIORANK_RETURN_IF_ERROR(
        BuildUniqueStates(candidates, uniques, unique_index, stats));
    if (metrics_.bounds_seconds != nullptr) {
      metrics_.bounds_seconds->Observe(SecondsSince(bounds_start));
    }
    span.Counter("cache_hits", stats.cache_hits);
    span.Counter("cache_misses", stats.cache_misses);
  }

  // Phases 4–5 — top-k cut and classification.
  std::vector<int> survivors;
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.prune");
    ClassifySurvivors(unique_index, uniques, k, stats, survivors);
    span.Counter("pruned", stats.pruned);
    span.Counter("bound_exact", stats.bound_exact);
    span.Counter("survivors", static_cast<int64_t>(survivors.size()));
  }

  // Phase 6 — resolve the survivors: factoring on small reduced
  // residues, Monte Carlo to convergence on the canonical-hash stream
  // otherwise. Both are pure functions of the canonical key, so fan-out
  // order is irrelevant; the MC seed never depends on request or
  // candidate order. A survivor carrying a partial anytime tally resumes
  // at its next shard — the remaining shards complete the same integer
  // sum the from-scratch path computes, so the value is bit-identical.
  {
    // The fan-out runs on pool threads, which carry no thread-local
    // trace binding; per-survivor spans attach to the resolve span by
    // explicit parent index instead (the Trace itself is mutex-guarded).
    obs::SpanScope resolve_span(obs::CurrentTrace(), "serve.resolve");
    obs::Trace* trace = obs::CurrentTrace();
    const int resolve_parent = resolve_span.index();
    const auto mc_start = std::chrono::steady_clock::now();
    pool.ParallelFor(
        static_cast<int64_t>(survivors.size()),
        [&](int, int64_t j) {
          UniqueState& u =
              uniques[static_cast<size_t>(survivors[static_cast<size_t>(j)])];
          obs::SpanScope span(trace, "serve.mc_shards", resolve_parent);
          Status st = TryResolveExact(u);
          if (!st.ok()) {
            u.status = st;
            return;
          }
          if (u.entry.has_value) {
            span.Counter("exact", 1);
            return;
          }
          st = AdvanceMonteCarlo(u, /*trial_budget=*/0);
          if (!st.ok()) {
            u.status = st;
            return;
          }
          span.Counter("trials", u.trials_spent);
        },
        max_parallelism);
    if (metrics_.mc_seconds != nullptr && !survivors.empty()) {
      metrics_.mc_seconds->Observe(SecondsSince(mc_start));
    }
    resolve_span.Counter("survivors", static_cast<int64_t>(survivors.size()));
  }
  for (const UniqueState& u : uniques) {
    if (!u.status.ok()) return u.status;
  }
  for (int index : survivors) {
    const UniqueState& u = uniques[static_cast<size_t>(index)];
    if (u.resolution == Resolution::kExact) {
      ++stats.exact;
    } else {
      ++stats.monte_carlo;
      stats.mc_trials += u.trials_spent;
    }
  }

  // Phase 7 — publish to the cache in unique order (sequential, so the
  // cache's LRU state is a deterministic function of the request
  // sequence). Pruned keys publish their bounds: the next request skips
  // straight to the prune gate.
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.publish");
    PublishEntries(uniques);
  }

  if (metrics_.candidates != nullptr) {
    metrics_.candidates->Add(static_cast<uint64_t>(stats.candidates));
    metrics_.pruned->Add(static_cast<uint64_t>(stats.pruned));
    metrics_.bound_exact->Add(static_cast<uint64_t>(stats.bound_exact));
    metrics_.exact->Add(static_cast<uint64_t>(stats.exact));
    metrics_.monte_carlo->Add(static_cast<uint64_t>(stats.monte_carlo));
    metrics_.mc_trials->Add(static_cast<uint64_t>(stats.mc_trials));
  }

  // Phase 8 — rank the resolved candidates and truncate to k.
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const UniqueState& u = uniques[static_cast<size_t>(unique_index[ci])];
    if (!u.entry.has_value) continue;  // Pruned: provably outside top k.
    RankedCandidate ranked;
    ranked.node = candidates[ci].node;
    ranked.reliability = u.entry.value;
    ranked.lower = u.entry.exact ? u.entry.value : u.entry.lower;
    ranked.upper = u.entry.exact ? u.entry.value : u.entry.upper;
    ranked.exact = u.entry.exact;
    ranked.resolution = u.resolution;
    result.top.push_back(ranked);
  }
  std::sort(result.top.begin(), result.top.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              return RanksBefore(a, b);
            });
  if (static_cast<int>(result.top.size()) > k) result.top.resize(k);
  return result;
}

size_t RankingService::OnDelta(const std::vector<CanonicalKey>& stale_keys) {
  return cache_.InvalidateKeys(stale_keys);
}

}  // namespace biorank::serve
