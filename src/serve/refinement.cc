#include "serve/refinement.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/csr_snapshot.h"
#include "obs/trace.h"

namespace biorank::serve {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Status CheckRequest(const RankingService& service, int k) {
  if (k < 1) return Status::InvalidArgument("serve: k must be >= 1");
  if (service.McTrialsPerCandidate() <= 0) {
    return Status::InvalidArgument(
        "serve: mc_epsilon must be in (0,1] and mc_delta in (0,1)");
  }
  return Status::OK();
}

/// Adds one step's scheduler counters (`after` - `before`) to the
/// service's registry, if it has one.
void RecordCounters(const RankingService& service, const RequestStats& before,
                    const RequestStats& after) {
  const RankingService::Metrics& m = service.metrics();
  if (m.candidates == nullptr) return;
  m.candidates->Add(
      static_cast<uint64_t>(after.candidates - before.candidates));
  m.pruned->Add(static_cast<uint64_t>(after.pruned - before.pruned));
  m.bound_exact->Add(
      static_cast<uint64_t>(after.bound_exact - before.bound_exact));
  m.exact->Add(static_cast<uint64_t>(after.exact - before.exact));
  m.monte_carlo->Add(
      static_cast<uint64_t>(after.monte_carlo - before.monte_carlo));
  m.mc_trials->Add(static_cast<uint64_t>(after.mc_trials - before.mc_trials));
}

/// Phases 2-5 over candidates whose canonicals are set, into a fresh
/// `state`.
Status PrepareCandidates(RankingService& service,
                         const std::vector<PreparedCandidate>& candidates,
                         int k, RefinementState& state) {
  state.k = std::min(k, static_cast<int>(candidates.size()));
  state.stats.candidates = static_cast<int>(candidates.size());
  state.nodes.reserve(candidates.size());
  for (const PreparedCandidate& c : candidates) state.nodes.push_back(c.node);
  if (candidates.empty()) return Status::OK();

  // Phases 2-3 — dedup, cache lookup, deterministic bounds.
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.cache_bounds");
    const Clock::time_point start = Clock::now();
    BIORANK_RETURN_IF_ERROR(service.BuildUniqueStates(
        candidates, state.uniques, state.unique_index, state.stats));
    if (service.metrics().bounds_seconds != nullptr) {
      service.metrics().bounds_seconds->Observe(SecondsSince(start));
    }
    span.Counter("cache_hits", state.stats.cache_hits);
    span.Counter("cache_misses", state.stats.cache_misses);
  }

  // Phases 4-5 — top-k cut and classification.
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.prune");
    service.ClassifySurvivors(state.unique_index, state.uniques, state.k,
                              state.stats, state.refinable);
    span.Counter("pruned", state.stats.pruned);
    span.Counter("bound_exact", state.stats.bound_exact);
    span.Counter("survivors", static_cast<int64_t>(state.refinable.size()));
  }

  // Phase 7 for the bounds: worth caching even if the state is never
  // advanced — the next request on an isomorphic key skips straight to
  // the prune gate.
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.publish");
    service.PublishEntries(state.uniques);
  }
  RecordCounters(service, RequestStats(), state.stats);
  return Status::OK();
}

}  // namespace

Result<RefinementState> Prepare(RankingService& service,
                                const QueryGraph& graph, int k) {
  // Checked before the phase-1 fan-out so a misconfigured request fails
  // in O(1), not O(answers).
  BIORANK_RETURN_IF_ERROR(CheckRequest(service, k));
  RefinementState state;
  const std::vector<NodeId>& targets = graph.answers;

  // Phase 1 — canonicalize every answer (pure per answer, so the fan-out
  // is deterministic at any thread count). One flat snapshot of the
  // request graph serves every answer's restriction traversal.
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.canonicalize");
    const CsrSnapshot request_csr = BuildCsrSnapshot(graph.graph);
    BIORANK_RETURN_IF_ERROR(service.CanonicalizeTargets(
        graph, targets, service.options().canonicalize, state.canonicals,
        &request_csr));
    span.Counter("targets", static_cast<int64_t>(targets.size()));
  }
  std::vector<PreparedCandidate> prepared(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    prepared[i].node = targets[i];
    prepared[i].canonical = &state.canonicals[i];
  }
  BIORANK_RETURN_IF_ERROR(PrepareCandidates(service, prepared, k, state));
  return state;
}

Result<RefinementState> Prepare(
    RankingService& service, const std::vector<PreparedCandidate>& candidates,
    int k) {
  BIORANK_RETURN_IF_ERROR(CheckRequest(service, k));
  for (const PreparedCandidate& c : candidates) {
    if (c.canonical == nullptr) {
      return Status::InvalidArgument(
          "serve: prepared candidate without a canonicalization");
    }
  }
  RefinementState state;
  BIORANK_RETURN_IF_ERROR(PrepareCandidates(service, candidates, k, state));
  return state;
}

Status Advance(RankingService& service, RefinementState& state,
               int64_t trial_budget, Clock::time_point deadline) {
  if (state.complete()) return Status::OK();
  const RequestStats before = state.stats;
  std::vector<UniqueState>& uniques = state.uniques;
  const std::vector<int>& refinable = state.refinable;
  auto trials_spent = [&] {
    int64_t sum = 0;
    for (int ui : refinable) {
      sum += uniques[static_cast<size_t>(ui)].trials_spent;
    }
    return sum;
  };
  const int64_t spent_before = trials_spent();

  // Adopt progress another request published for a survivor's key.
  // Values and tallies are pure functions of (canonical key, seed,
  // trials), so adopting never changes the converged answer — it only
  // skips coin flips already flipped. Sequential and in unique order, so
  // the cache's LRU order stays a function of the request sequence.
  if (service.options().enable_cache) {
    for (int ui : refinable) {
      UniqueState& u = uniques[static_cast<size_t>(ui)];
      std::optional<CacheEntry> got = service.cache().Get(u.canonical->key);
      if (!got.has_value() ||
          !(got->has_value || got->trials > u.entry.trials)) {
        continue;
      }
      u.entry = *got;
      if (u.entry.has_value) {
        u.resolution = Resolution::kCacheValue;
        ++state.stats.cache_hits;
      }
    }
  }

  // Phase 6 — resolve the survivors: the DAG sweep, then factoring on
  // small reduced residues, Monte Carlo on the canonical-hash stream
  // otherwise. All are pure functions of the canonical key, so fan-out
  // order is irrelevant. The fan-out runs on pool threads, which carry no
  // thread-local trace binding; per-survivor spans attach to the resolve
  // span by explicit parent index instead.
  {
    obs::Trace* trace = obs::CurrentTrace();
    obs::SpanScope resolve_span(trace, "serve.resolve");
    const int resolve_parent = resolve_span.index();
    const Clock::time_point start = Clock::now();
    service.ParallelFor(
        static_cast<int64_t>(refinable.size()), [&](int, int64_t j) {
          UniqueState& u = uniques[static_cast<size_t>(
              refinable[static_cast<size_t>(j)])];
          // Past the deadline a survivor is skipped, never interrupted
          // mid-shard, so it keeps a clean trials-so-far position.
          if (u.entry.has_value || Clock::now() >= deadline) return;
          obs::SpanScope span(trace, "serve.mc_shards", resolve_parent);
          u.status = service.TryResolveExact(u);
          if (!u.status.ok()) return;
          if (u.entry.has_value) {
            span.Counter("exact", 1);
            return;
          }
          const int64_t spent = u.trials_spent;
          u.status = service.AdvanceMonteCarlo(u, trial_budget);
          span.Counter("trials", u.trials_spent - spent);
        });
    if (service.metrics().mc_seconds != nullptr) {
      service.metrics().mc_seconds->Observe(SecondsSince(start));
    }
    resolve_span.Counter("survivors", static_cast<int64_t>(refinable.size()));
  }
  for (int ui : refinable) {
    BIORANK_RETURN_IF_ERROR(uniques[static_cast<size_t>(ui)].status);
  }
  state.stats.mc_trials += trials_spent() - spent_before;

  // Phase 7 — publish once per increment, in unique order. Partial
  // tallies publish too: any later request on the key resumes from them.
  {
    obs::SpanScope span(obs::CurrentTrace(), "serve.publish");
    service.PublishEntries(uniques);
  }
  std::vector<int> still;
  for (int ui : refinable) {
    const UniqueState& u = uniques[static_cast<size_t>(ui)];
    if (!u.entry.has_value) {
      still.push_back(ui);
    } else if (u.resolution == Resolution::kExact) {
      ++state.stats.exact;
    } else if (u.resolution == Resolution::kMonteCarlo) {
      ++state.stats.monte_carlo;
    }
  }
  state.refinable.swap(still);
  RecordCounters(service, before, state.stats);
  return Status::OK();
}

std::vector<RankedCandidate> CurrentRanking(const RefinementState& state) {
  std::vector<RankedCandidate> top;
  top.reserve(state.nodes.size());
  for (size_t ci = 0; ci < state.nodes.size(); ++ci) {
    const UniqueState& u =
        state.uniques[static_cast<size_t>(state.unique_index[ci])];
    RankedCandidate ranked;
    ranked.node = state.nodes[ci];
    if (u.entry.has_value) {
      ranked.reliability = u.entry.value;
      ranked.lower = u.entry.exact ? u.entry.value : u.entry.lower;
      ranked.upper = u.entry.exact ? u.entry.value : u.entry.upper;
      ranked.exact = u.entry.exact;
      ranked.resolution = u.resolution;
    } else if (u.resolution == Resolution::kPruned) {
      continue;  // Provably outside the top k at any final value.
    } else {
      // Open bracket: rank on the midpoint so callers get a best-guess
      // order; the bracket itself rides along for the honest answer.
      ranked.reliability = 0.5 * (u.entry.lower + u.entry.upper);
      ranked.lower = u.entry.lower;
      ranked.upper = u.entry.upper;
      ranked.exact = false;
      ranked.resolution = Resolution::kRefining;
    }
    top.push_back(ranked);
  }
  std::sort(top.begin(), top.end(), RanksBefore);
  if (static_cast<int>(top.size()) > state.k) {
    top.resize(static_cast<size_t>(state.k));
  }
  return top;
}

Completeness Summarize(const RefinementState& state) {
  Completeness summary;
  for (size_t ci = 0; ci < state.nodes.size(); ++ci) {
    const UniqueState& u =
        state.uniques[static_cast<size_t>(state.unique_index[ci])];
    if (u.entry.has_value) {
      ++summary.resolved;
    } else if (u.resolution == Resolution::kPruned) {
      ++summary.bounded;
    } else {
      ++summary.refining;
      summary.widest_bracket =
          std::max(summary.widest_bracket, u.entry.upper - u.entry.lower);
    }
  }
  summary.complete = summary.refining == 0;
  return summary;
}

}  // namespace biorank::serve
