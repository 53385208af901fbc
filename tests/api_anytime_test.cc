// The anytime serving contract end to end: a kAnytime ranking with no
// budget returns the pure bounds-only answer (zero exact/MC spend),
// repeated Refine increments land bit-identically on the blocking
// answer at any thread count with the cache on or off (and agree with it
// on completeness and the serve counters they feed), deadlines come
// back as typed kDeadlineExceeded rejections with no partial answer,
// and the refinement ledger survives cancellation and a concurrent
// Refine/ApplyDelta hammer (run under TSan via the concurrency label).
//
// The MC-heavy rankings enter through RankGraph(graph, options) on
// random layered DAGs: the protein universe's per-answer residues
// reduce to single paths, so its bounds always collapse and a
// front-door Query never leaves open brackets. The deadline/admission
// tests use Query, where the integration phase is part of the story.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/query.h"
#include "api/server.h"
#include "obs/metrics.h"
#include "testing/metrics.h"
#include "testing/random_graphs.h"
#include "util/rng.h"

namespace biorank::api {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;
using testing::CounterValue;

uint64_t ServerCounter(const Server& server, std::string_view name) {
  return CounterValue(server.MetricsSnapshot(), name);
}

std::string WellStudiedSymbol(const Server& server, int index) {
  const ProteinUniverse& universe = server.universe();
  return universe.protein(universe.well_studied()[static_cast<size_t>(index)])
      .gene_symbol;
}

/// Server options that force Monte Carlo on every survivor (factoring
/// disabled), so refinement has real incremental work to do.
ServerOptions McForcedOptions(int num_threads, bool enable_cache) {
  ServerOptions options;
  options.ranking.num_threads = num_threads;
  options.ranking.enable_cache = enable_cache;
  options.ranking.exact_max_edges = 0;
  return options;
}

/// A layered random DAG whose answers carry genuinely open bounds
/// (multiple source paths, so k-best-paths lower < propagation upper).
QueryGraph McGraph(uint64_t seed) {
  Rng rng(seed);
  testing::RandomDagOptions options;
  options.layers = 3;
  options.nodes_per_layer = 5;
  options.answers = 8;
  return testing::MakeRandomLayeredDag(rng, options);
}

/// A workload big enough that converging it takes milliseconds, not
/// microseconds — the deadline-bounded test needs convergence to be
/// reliably out of reach of a sub-millisecond budget.
QueryGraph BigMcGraph(uint64_t seed) {
  Rng rng(seed);
  testing::RandomDagOptions options;
  options.layers = 4;
  options.nodes_per_layer = 6;
  options.answers = 12;
  return testing::MakeRandomLayeredDag(rng, options);
}

QueryOptions AnytimeOptions(int k) {
  QueryOptions options;
  options.top_k = k;
  options.mode = QueryMode::kAnytime;
  return options;
}

QueryOptions BlockingOptions(int k) {
  QueryOptions options;
  options.top_k = k;
  return options;
}

/// Drives `handle` to convergence in fixed-budget increments and
/// returns the final response. Fails the test if the ledger never
/// settles.
QueryResponse RefineToConvergence(Server& server, QueryResponse first,
                                  int64_t budget) {
  QueryResponse current = std::move(first);
  int increments = 0;
  while (current.refinement.valid()) {
    QueryOptions step;
    step.mc_trial_budget = budget;
    Result<QueryResponse> next = server.Refine(current.refinement, step);
    EXPECT_TRUE(next.ok()) << next.status();
    if (!next.ok()) break;
    current = std::move(next).value();
    if (++increments > 1000) {
      ADD_FAILURE() << "refinement never converged";
      break;
    }
  }
  EXPECT_TRUE(current.completeness.complete);
  return current;
}

TEST(ApiAnytimeTest, ZeroBudgetReturnsPureBoundsOnlyRanking) {
  Server server(McForcedOptions(1, true));
  QueryGraph graph = McGraph(7);
  Result<QueryResponse> response = server.RankGraph(graph, AnytimeOptions(0));
  ASSERT_TRUE(response.ok()) << response.status();
  const QueryResponse& r = response.value();

  // Nothing past phase 5 ran: no factoring, no MC trials, only the
  // deterministic bound classification.
  EXPECT_EQ(r.stats.exact, 0);
  EXPECT_EQ(r.stats.monte_carlo, 0);
  EXPECT_EQ(r.stats.mc_trials, 0);
  EXPECT_GT(r.stats.candidates, 0);
  EXPECT_FALSE(r.top.empty());
  for (size_t i = 0; i < r.top.size(); ++i) {
    EXPECT_GE(r.top[i].upper + 1e-15, r.top[i].lower);
    if (i > 0) {
      EXPECT_GE(r.top[i - 1].reliability + 1e-15, r.top[i].reliability);
    }
  }

  // With factoring disabled the multi-path answers are still open, so
  // the response carries a live refinement handle and says so.
  EXPECT_GT(r.completeness.refining, 0);
  EXPECT_GT(r.completeness.widest_bracket, 0.0);
  EXPECT_FALSE(r.completeness.complete);
  EXPECT_TRUE(r.refinement.valid());
  EXPECT_EQ(server.refinement_count(), 1u);
  EXPECT_EQ(ServerCounter(server, "biorank_api_refinements_started_total"), 1u);
  ASSERT_TRUE(server.CancelRefinement(r.refinement).ok());
}

TEST(ApiAnytimeTest, RefinedRankingIsBitIdenticalToBlockingAtAnyThreadCount) {
  QueryGraph graph = McGraph(11);
  for (int num_threads : {1, 4}) {
    for (bool enable_cache : {true, false}) {
      SCOPED_TRACE("num_threads=" + std::to_string(num_threads) +
                   " cache=" + std::to_string(enable_cache));
      Server blocking(McForcedOptions(num_threads, enable_cache));
      Server anytime(McForcedOptions(num_threads, enable_cache));

      Result<QueryResponse> reference =
          blocking.RankGraph(graph, BlockingOptions(5));
      ASSERT_TRUE(reference.ok()) << reference.status();
      EXPECT_GT(reference.value().stats.monte_carlo, 0)
          << "workload never exercised the MC path";

      Result<QueryResponse> first = anytime.RankGraph(graph, AnytimeOptions(5));
      ASSERT_TRUE(first.ok()) << first.status();
      EXPECT_EQ(first.value().stats.mc_trials, 0);
      QueryResponse final_response =
          RefineToConvergence(anytime, std::move(first).value(), 1024);
      EXPECT_EQ(RankingFingerprint(final_response),
                RankingFingerprint(reference.value()));
      EXPECT_FALSE(final_response.refinement.valid());
      EXPECT_EQ(anytime.refinement_count(), 0u);
      EXPECT_EQ(
          ServerCounter(anytime, "biorank_api_refinements_completed_total"),
          1u);
    }
  }
}

TEST(ApiAnytimeTest, RefineWithoutBudgetFinishesTheJob) {
  Server server(McForcedOptions(1, true));
  Server blocking(McForcedOptions(1, true));
  QueryGraph graph = McGraph(23);
  Result<QueryResponse> first = server.RankGraph(graph, AnytimeOptions(0));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first.value().refinement.valid());

  // No budget, no deadline: one Refine call runs to convergence.
  Result<QueryResponse> refined = server.Refine(first.value().refinement);
  ASSERT_TRUE(refined.ok()) << refined.status();
  EXPECT_TRUE(refined.value().completeness.complete);
  EXPECT_FALSE(refined.value().refinement.valid());
  EXPECT_GT(refined.value().stats.mc_trials, 0);

  Result<QueryResponse> reference = blocking.RankGraph(graph, BlockingOptions(0));
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(RankingFingerprint(refined.value()),
            RankingFingerprint(reference.value()));
}

TEST(ApiAnytimeTest, BlockingCompletenessEqualsConvergedAnytimeOnEveryProtein) {
  // Blocking is anytime run to convergence, so the two must report the
  // same ranking and, field for field, the same completeness — per
  // candidate, with request-local duplicates counted once each.
  Server blocking_server;
  Server anytime_server;
  const ProteinUniverse& universe = blocking_server.universe();
  int mismatches = 0;
  for (int p = 0; p < universe.num_proteins(); ++p) {
    const std::string& symbol = universe.protein(p).gene_symbol;
    SCOPED_TRACE(symbol);
    Result<QueryResponse> blocking =
        blocking_server.Query(MakeProteinFunctionRequest(symbol, 10));
    QueryRequest anytime_request = MakeProteinFunctionRequest(symbol, 10);
    anytime_request.options.mode = QueryMode::kAnytime;
    anytime_request.options.budget_s = 60.0;
    Result<QueryResponse> anytime = anytime_server.Query(anytime_request);
    ASSERT_EQ(blocking.ok(), anytime.ok());
    if (!blocking.ok()) continue;
    const serve::Completeness& b = blocking.value().completeness;
    const serve::Completeness& a = anytime.value().completeness;
    ASSERT_TRUE(a.complete);
    ASSERT_FALSE(anytime.value().refinement.valid());
    EXPECT_EQ(RankingFingerprint(blocking.value()),
              RankingFingerprint(anytime.value()));
    const bool same = b.resolved == a.resolved && b.bounded == a.bounded &&
                      b.refining == a.refining &&
                      b.widest_bracket == a.widest_bracket &&
                      b.complete == a.complete;
    EXPECT_TRUE(same) << "blocking resolved=" << b.resolved
                      << " bounded=" << b.bounded << " vs anytime resolved="
                      << a.resolved << " bounded=" << a.bounded;
    if (!same) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0) << "of " << universe.num_proteins() << " proteins";
}

/// The serve-layer scheduler counters a ranking feeds.
struct ServeCounters {
  uint64_t candidates = 0;
  uint64_t pruned = 0;
  uint64_t exact = 0;
  uint64_t monte_carlo = 0;
  uint64_t mc_trials = 0;

  bool operator==(const ServeCounters& o) const {
    return std::tie(candidates, pruned, exact, monte_carlo, mc_trials) ==
           std::tie(o.candidates, o.pruned, o.exact, o.monte_carlo,
                    o.mc_trials);
  }
};

ServeCounters ReadServeCounters(const Server& server) {
  const obs::Snapshot snapshot = server.MetricsSnapshot();
  return {CounterValue(snapshot, "biorank_serve_candidates_total"),
          CounterValue(snapshot, "biorank_serve_pruned_total"),
          CounterValue(snapshot, "biorank_serve_exact_total"),
          CounterValue(snapshot, "biorank_serve_monte_carlo_total"),
          CounterValue(snapshot, "biorank_serve_mc_trials_total")};
}

ServeCounters Delta(const ServeCounters& before, const ServeCounters& after) {
  return {after.candidates - before.candidates, after.pruned - before.pruned,
          after.exact - before.exact, after.monte_carlo - before.monte_carlo,
          after.mc_trials - before.mc_trials};
}

/// What the counters should have moved by for a response's stats.
ServeCounters FromStats(const serve::RequestStats& stats) {
  return {static_cast<uint64_t>(stats.candidates),
          static_cast<uint64_t>(stats.pruned),
          static_cast<uint64_t>(stats.exact),
          static_cast<uint64_t>(stats.monte_carlo),
          static_cast<uint64_t>(stats.mc_trials)};
}

TEST(ApiAnytimeTest, AnytimeFeedsTheServeCountersLikeBlocking) {
  QueryGraph graph = McGraph(61);
  Server blocking_server(McForcedOptions(1, true));
  Server anytime_server(McForcedOptions(1, true));

  const ServeCounters blocking_before = ReadServeCounters(blocking_server);
  Result<QueryResponse> blocking =
      blocking_server.RankGraph(graph, BlockingOptions(5));
  ASSERT_TRUE(blocking.ok()) << blocking.status();
  ASSERT_GT(blocking.value().stats.mc_trials, 0)
      << "workload never exercised the MC path";
  const ServeCounters blocking_delta =
      Delta(blocking_before, ReadServeCounters(blocking_server));
  EXPECT_EQ(blocking_delta, FromStats(blocking.value().stats));

  // Bounds-only first, then increments to convergence: the counters
  // follow every step, and their sum is the final cumulative stats.
  const ServeCounters anytime_before = ReadServeCounters(anytime_server);
  Result<QueryResponse> first =
      anytime_server.RankGraph(graph, AnytimeOptions(5));
  ASSERT_TRUE(first.ok()) << first.status();
  QueryResponse converged =
      RefineToConvergence(anytime_server, std::move(first).value(), 1024);
  const ServeCounters anytime_delta =
      Delta(anytime_before, ReadServeCounters(anytime_server));
  EXPECT_EQ(anytime_delta, FromStats(converged.stats));

  EXPECT_EQ(anytime_delta, blocking_delta);
  EXPECT_EQ(RankingFingerprint(converged),
            RankingFingerprint(blocking.value()));
}

TEST(ApiAnytimeTest, CancelAndStaleHandleSemantics) {
  Server server(McForcedOptions(1, true));
  QueryGraph graph = McGraph(37);
  Result<QueryResponse> open = server.RankGraph(graph, AnytimeOptions(0));
  ASSERT_TRUE(open.ok()) << open.status();
  RefinementHandle handle = open.value().refinement;
  ASSERT_TRUE(handle.valid());

  // A cancelled handle is gone, exactly like a finished one: a second
  // cancel and a later Refine both answer NotFound, one error each, and
  // the server keeps no record of the id.
  ASSERT_TRUE(server.CancelRefinement(handle).ok());
  EXPECT_EQ(server.refinement_count(), 0u);
  const uint64_t errors_before =
      ServerCounter(server, "biorank_api_errors_total");
  EXPECT_EQ(server.CancelRefinement(handle).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.Refine(handle).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ServerCounter(server, "biorank_api_errors_total"),
            errors_before + 2);
  EXPECT_EQ(ServerCounter(server, "biorank_api_refinements_cancelled_total"),
            1u);

  // A handle the server never issued is NotFound, as is the invalid
  // (zero) handle.
  EXPECT_EQ(server.Refine(RefinementHandle{9999}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.CancelRefinement(RefinementHandle{9999}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.Refine(RefinementHandle{}).status().code(),
            StatusCode::kNotFound);
}

TEST(ApiAnytimeTest, ExpiredDeadlineIsATypedRejectionWithNoPartialAnswer) {
  Server server;
  QueryRequest request =
      MakeProteinFunctionRequest(WellStudiedSymbol(server, 0), 5);
  request.options.mode = QueryMode::kAnytime;
  request.options.deadline = Clock::now() - milliseconds(1);
  Result<QueryResponse> response = server.Query(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ServerCounter(server,
                          "biorank_api_admission_rejected_deadline_total"),
            1u);
  EXPECT_EQ(server.refinement_count(), 0u);

  // The per-request budget spells the same deadline relative to the
  // request's own start: a budget below the clock resolution has
  // always expired by the time admission looks at it.
  QueryRequest budgeted =
      MakeProteinFunctionRequest(WellStudiedSymbol(server, 0), 5);
  budgeted.options.mode = QueryMode::kAnytime;
  budgeted.options.budget_s = 1e-12;
  EXPECT_EQ(server.Query(budgeted).status().code(),
            StatusCode::kDeadlineExceeded);

  // RankGraph sits behind the same admission gate.
  QueryGraph graph = McGraph(41);
  QueryOptions late = AnytimeOptions(5);
  late.deadline = Clock::now() - milliseconds(1);
  EXPECT_EQ(server.RankGraph(graph, late).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ServerCounter(server,
                          "biorank_api_admission_rejected_deadline_total"),
            3u);
  EXPECT_EQ(server.refinement_count(), 0u);
}

TEST(ApiAnytimeTest, DeadlineBoundedQueryStillRegistersARefinableHandle) {
  // A deadline long enough to admit but far too short to converge: the
  // response is a usable partial ranking plus a live handle, and
  // finishing the job later still lands on the blocking answer.
  Server server(McForcedOptions(1, true));
  QueryGraph graph = BigMcGraph(43);
  QueryOptions options = AnytimeOptions(0);
  options.budget_s = 5e-4;
  options.mc_trial_budget = 256;
  Result<QueryResponse> first = server.RankGraph(graph, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first.value().refinement.valid())
      << "half a millisecond somehow converged the whole MC workload";
  QueryResponse finished = std::move(first).value();
  if (finished.refinement.valid()) {
    Result<QueryResponse> rest = server.Refine(finished.refinement);
    ASSERT_TRUE(rest.ok()) << rest.status();
    finished = std::move(rest).value();
  }
  EXPECT_TRUE(finished.completeness.complete);

  Server blocking(McForcedOptions(1, true));
  Result<QueryResponse> reference = blocking.RankGraph(graph, BlockingOptions(0));
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(RankingFingerprint(finished),
            RankingFingerprint(reference.value()));
}

TEST(ApiAnytimeTest, ConcurrentRefineAndDeltaHammer) {
  // Refine on one ledger entry from several threads while evidence
  // deltas invalidate cache entries underneath: the ledger's per-handle
  // tallies must keep the final ranking bit-identical to blocking, and
  // nothing may race (run under TSan via the concurrency label).
  Server server(McForcedOptions(2, true));
  const std::string delta_symbol = WellStudiedSymbol(server, 4);
  Result<SessionInfo> session =
      server.OpenSession(MakeProteinFunctionRequest(delta_symbol));
  ASSERT_TRUE(session.ok()) << session.status();

  QueryGraph graph = BigMcGraph(53);
  Result<QueryResponse> first = server.RankGraph(graph, AnytimeOptions(0));
  ASSERT_TRUE(first.ok()) << first.status();
  RefinementHandle handle = first.value().refinement;
  ASSERT_TRUE(handle.valid());

  std::atomic<bool> converged{false};
  std::mutex final_mu;
  QueryResponse final_response;
  std::vector<std::thread> refiners;
  for (int t = 0; t < 3; ++t) {
    refiners.emplace_back([&server, &converged, &final_mu, &final_response,
                           handle] {
      for (int i = 0; i < 400 && !converged.load(); ++i) {
        QueryOptions step;
        step.mc_trial_budget = 512;
        Result<QueryResponse> refined = server.Refine(handle, step);
        if (!refined.ok()) {
          // A sibling won the last increment and the ledger entry is
          // gone — the only acceptable way to lose.
          EXPECT_EQ(refined.status().code(), StatusCode::kNotFound)
              << refined.status();
          break;
        }
        if (refined.value().completeness.complete) {
          std::lock_guard<std::mutex> lock(final_mu);
          final_response = std::move(refined).value();
          converged.store(true);
        }
      }
    });
  }
  std::thread mutator([&server, &session] {
    for (int i = 0; i < 20; ++i) {
      ingest::EvidenceDelta delta;
      delta.revise_source_priors.push_back(
          {"AmiGO", 0.8 + 0.01 * (i % 10)});
      Result<ingest::ApplyReport> applied =
          server.ApplyDelta(session.value().id, delta);
      EXPECT_TRUE(applied.ok()) << applied.status();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : refiners) t.join();
  mutator.join();
  EXPECT_TRUE(converged.load());
  EXPECT_EQ(server.refinement_count(), 0u);

  // The concurrently refined ranking equals the blocking answer on a
  // fresh cache-off single-thread reference.
  Server reference(McForcedOptions(1, false));
  Result<QueryResponse> blocking = reference.RankGraph(graph, BlockingOptions(0));
  ASSERT_TRUE(blocking.ok()) << blocking.status();
  EXPECT_EQ(RankingFingerprint(final_response),
            RankingFingerprint(blocking.value()));
}

}  // namespace
}  // namespace biorank::api
