#include "api/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "api/query.h"
#include "core/query_graph.h"
#include "ingest/delta.h"
#include "obs/metrics.h"
#include "testing/metrics.h"

namespace biorank::api {
namespace {

using testing::CounterValue;
using testing::GaugeValue;

/// Reliability-cache lookups (hits + misses) the registry has seen.
uint64_t CacheLookups(const obs::Snapshot& snapshot) {
  return CounterValue(snapshot, "biorank_serve_cache_hits_total") +
         CounterValue(snapshot, "biorank_serve_cache_misses_total");
}

/// One shared server for the read-only tests (one world, one cache).
Server& SharedServer() {
  static Server* server = new Server();
  return *server;
}

std::string WellStudiedSymbol(const Server& server, int index) {
  const ProteinUniverse& universe = server.universe();
  return universe.protein(universe.well_studied()[static_cast<size_t>(index)])
      .gene_symbol;
}

TEST(ApiServerTest, QueryReturnsTypedRankedResponse) {
  Server& server = SharedServer();
  Result<QueryResponse> response =
      server.Query(MakeProteinFunctionRequest(WellStudiedSymbol(server, 0), 5));
  ASSERT_TRUE(response.ok()) << response.status();
  const QueryResponse& r = response.value();
  EXPECT_GT(r.result.query_graph.graph.num_nodes(), 0);
  EXPECT_EQ(r.result.matched_proteins, 1);
  ASSERT_EQ(r.top.size(), 5u);
  for (size_t i = 0; i < r.top.size(); ++i) {
    const RankedAnswer& answer = r.top[i];
    EXPECT_FALSE(answer.label.empty());
    EXPECT_GE(answer.reliability, answer.lower - 1e-15);
    EXPECT_LE(answer.reliability, answer.upper + 1e-15);
    if (i > 0) {
      EXPECT_GE(r.top[i - 1].reliability, answer.reliability);
    }
  }
  EXPECT_GT(r.stats.candidates, 0);
  EXPECT_GE(r.timing.total_s, r.timing.rank_s);
  EXPECT_GT(r.timing.integrate_s, 0.0);
}

TEST(ApiServerTest, RepeatedQueryRidesTheSharedCache) {
  Server& server = SharedServer();
  QueryRequest request =
      MakeProteinFunctionRequest(WellStudiedSymbol(server, 1), 5);
  Result<QueryResponse> first = server.Query(request);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<QueryResponse> second = server.Query(request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().stats.cache_misses, 0);
  EXPECT_EQ(RankingFingerprint(second.value()), RankingFingerprint(first.value()));
}

TEST(ApiServerTest, TopKSemantics) {
  Server& server = SharedServer();
  const std::string symbol = WellStudiedSymbol(server, 2);
  Result<QueryResponse> all = server.Query(MakeProteinFunctionRequest(symbol));
  ASSERT_TRUE(all.ok()) << all.status();
  size_t answers = all.value().result.query_graph.answers.size();
  ASSERT_GT(answers, 0u);
  EXPECT_EQ(all.value().top.size(), answers);

  // k beyond the answer count clamps; negative k ranks all.
  Result<QueryResponse> huge = server.Query(
      MakeProteinFunctionRequest(symbol, static_cast<int>(answers) + 1000));
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(RankingFingerprint(huge.value()), RankingFingerprint(all.value()));
  Result<QueryResponse> negative =
      server.Query(MakeProteinFunctionRequest(symbol, -7));
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(RankingFingerprint(negative.value()), RankingFingerprint(all.value()));
}

TEST(ApiServerTest, GraphOnlyRequestSkipsRanking) {
  Server& server = SharedServer();
  QueryRequest request = MakeProteinFunctionRequest(WellStudiedSymbol(server, 3));
  request.options.rank = false;
  Result<QueryResponse> response = server.Query(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response.value().result.query_graph.answers.empty());
  EXPECT_TRUE(response.value().top.empty());
  EXPECT_EQ(response.value().stats.candidates, 0);
  EXPECT_EQ(response.value().timing.rank_s, 0.0);
}

TEST(ApiServerTest, ErrorStatusesPropagateThroughTheFacade) {
  Server& server = SharedServer();
  EXPECT_EQ(server.Query(MakeProteinFunctionRequest("NO_SUCH_GENE"))
                .status()
                .code(),
            StatusCode::kNotFound);
  QueryRequest wrong_shape = MakeProteinFunctionRequest("x");
  wrong_shape.query.entity_set = "Pfam";
  EXPECT_EQ(server.Query(wrong_shape).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ApiServerTest, ForeignSeedIsRejectedAtEveryEntryPoint) {
  // The shared cache serves one seed, so a request pinning any other
  // nonzero seed is kInvalidArgument before it does any work: no cache
  // lookup, no new entry, and exactly one error per rejected call.
  Server server;
  const uint64_t foreign = server.options().ranking.seed + 1;
  QueryRequest request =
      MakeProteinFunctionRequest(WellStudiedSymbol(server, 0), 5);
  ASSERT_TRUE(server.Query(request).ok());
  const obs::Snapshot before = server.MetricsSnapshot();
  request.options.seed = foreign;
  QueryOptions options;
  options.seed = foreign;
  EXPECT_EQ(server.Query(request).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.RankGraph(MakeFig4bWheatstoneBridge(), options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.RunBatch({request}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Refine(RefinementHandle{1}, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.OpenSession(request).status().code(),
            StatusCode::kInvalidArgument);
  const obs::Snapshot after = server.MetricsSnapshot();
  EXPECT_EQ(CacheLookups(after), CacheLookups(before));
  EXPECT_EQ(GaugeValue(after, "biorank_serve_cache_entries"),
            GaugeValue(before, "biorank_serve_cache_entries"));
  EXPECT_EQ(CounterValue(after, "biorank_api_errors_total"),
            CounterValue(before, "biorank_api_errors_total") + 5);
  EXPECT_EQ(CounterValue(after, "biorank_api_admission_admitted_total"),
            CounterValue(before, "biorank_api_admission_admitted_total"));
  EXPECT_EQ(server.session_count(), 0u);

  // The server's own seed, spelled out, is the canonical seed.
  request.options.seed = server.options().ranking.seed;
  EXPECT_TRUE(server.Query(request).ok());
}

TEST(ApiServerTest, RunBatchMatchesSerialExecutionBitForBit) {
  const int n = 6;
  Server batch_server;
  Server serial_server;
  std::vector<QueryRequest> batch;
  for (int i = 0; i < n; ++i) {
    // Duplicates on purpose: batched requests may share cache keys.
    batch.push_back(
        MakeProteinFunctionRequest(WellStudiedSymbol(batch_server, i % 4), 10));
  }
  Result<std::vector<QueryResponse>> fanned = batch_server.RunBatch(batch);
  ASSERT_TRUE(fanned.ok()) << fanned.status();
  ASSERT_EQ(fanned.value().size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<QueryResponse> serial = serial_server.Query(batch[i]);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_EQ(RankingFingerprint(fanned.value()[i]), RankingFingerprint(serial.value()))
        << "batched request " << i << " diverged from serial execution";
  }
  obs::Snapshot metrics = batch_server.MetricsSnapshot();
  EXPECT_EQ(CounterValue(metrics, "biorank_api_batches_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_batch_requests_total"),
            static_cast<uint64_t>(n));
  EXPECT_EQ(CounterValue(metrics, "biorank_api_queries_total"),
            static_cast<uint64_t>(n));

  // A failing request fails the batch with the first (lowest-index)
  // error; an empty batch is a no-op.
  batch[2] = MakeProteinFunctionRequest("NO_SUCH_GENE");
  batch[4].query.entity_set = "Pfam";
  EXPECT_EQ(batch_server.RunBatch(batch).status().code(),
            StatusCode::kNotFound);
  // Accounting stays reconciled on a partial batch: the four requests
  // that were served still count, the two failures do not.
  metrics = batch_server.MetricsSnapshot();
  EXPECT_EQ(CounterValue(metrics, "biorank_api_batch_requests_total"),
            static_cast<uint64_t>(n) + 4);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_queries_total"),
            static_cast<uint64_t>(n) + 4);
  Result<std::vector<QueryResponse>> empty = batch_server.RunBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(ApiServerTest, RankGraphServesCallerProvidedGraphs) {
  Server& server = SharedServer();
  QueryGraph bridge = MakeFig4bWheatstoneBridge();
  Result<QueryResponse> response = server.RankGraph(bridge, 1);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response.value().top.size(), 1u);
  EXPECT_GT(response.value().top[0].reliability, 0.0);
  EXPECT_LE(response.value().top[0].reliability, 1.0);
  // result stays empty: the caller owns the graph.
  EXPECT_EQ(response.value().result.query_graph.graph.num_nodes(), 0);
}

TEST(ApiServerTest, RankGraphRejectsDuplicateAndForeignAnswers) {
  // The answer set must be distinct non-source nodes, in either mode;
  // the request is rejected before any ranking work.
  Server& server = SharedServer();
  QueryGraph duplicate = MakeFig4aSerialParallel();
  duplicate.answers.push_back(duplicate.answers[0]);
  QueryGraph with_source = MakeFig4aSerialParallel();
  with_source.answers.push_back(with_source.source);
  for (QueryMode mode : {QueryMode::kBlocking, QueryMode::kAnytime}) {
    QueryOptions options;
    options.mode = mode;
    Result<QueryResponse> dup = server.RankGraph(duplicate, options);
    EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(dup.status().message().find("duplicate answer"),
              std::string::npos)
        << dup.status();
    Result<QueryResponse> source = server.RankGraph(with_source, options);
    EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(source.status().message().find("source cannot be an answer"),
              std::string::npos)
        << source.status();
  }
  EXPECT_EQ(server.refinement_count(), 0u);
}

TEST(ApiServerTest, SessionLifecycle) {
  Server server;
  const std::string symbol = WellStudiedSymbol(server, 0);
  Result<SessionInfo> opened =
      server.OpenSession(MakeProteinFunctionRequest(symbol));
  ASSERT_TRUE(opened.ok()) << opened.status();
  const SessionInfo& info = opened.value();
  EXPECT_GT(info.id, 0u);
  EXPECT_GT(info.answers, 0);
  EXPECT_EQ(info.matched_proteins, 1);
  EXPECT_EQ(static_cast<int>(info.go_node.size()), info.answers);
  EXPECT_EQ(server.session_count(), 1u);

  // A session query matches the one-shot answer for the same symbol.
  Result<QueryResponse> live = server.QuerySession(info.id, 10);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_EQ(live.value().top.size(), 10u);
  EXPECT_FALSE(live.value().top[0].label.empty());
  EXPECT_EQ(live.value().result.matched_proteins, 1);
  Result<QueryResponse> oneshot =
      server.Query(MakeProteinFunctionRequest(symbol, 10));
  ASSERT_TRUE(oneshot.ok());
  EXPECT_EQ(RankingFingerprint(live.value()), RankingFingerprint(oneshot.value()));

  // Apply a schema-validated delta; the incremental ranking must equal a
  // from-scratch rebuild of the snapshot on a cache-off reference.
  ingest::EvidenceDelta delta;
  delta.revise_source_priors.push_back({"AmiGO", 0.9});
  Result<ingest::ApplyReport> applied = server.ApplyDelta(info.id, delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_GT(applied.value().dirty_answers, 0);
  Result<QueryResponse> after = server.QuerySession(info.id, 10);
  ASSERT_TRUE(after.ok()) << after.status();
  Result<QueryGraph> snapshot = server.SessionSnapshot(info.id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ServerOptions reference_options;
  reference_options.ranking.enable_cache = false;
  reference_options.ranking.num_threads = 1;
  Server reference(reference_options);
  Result<QueryResponse> rebuilt = reference.RankGraph(snapshot.value(), 10);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(RankingFingerprint(after.value()), RankingFingerprint(rebuilt.value()));

  // An invalid delta is rejected by the schema metrics; nothing changes.
  ingest::EvidenceDelta unknown;
  unknown.revise_source_priors.push_back({"NoSuchSource", 0.9});
  EXPECT_EQ(server.ApplyDelta(info.id, unknown).status().code(),
            StatusCode::kNotFound);

  // Close; the handle goes stale everywhere and is never reused.
  ASSERT_TRUE(server.CloseSession(info.id).ok());
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.QuerySession(info.id, 5).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.ApplyDelta(info.id, delta).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.CloseSession(info.id).code(), StatusCode::kNotFound);
  Result<SessionInfo> reopened =
      server.OpenSession(MakeProteinFunctionRequest(symbol));
  ASSERT_TRUE(reopened.ok());
  EXPECT_NE(reopened.value().id, info.id);
}

TEST(ApiServerTest, SessionRankingReportsTheSameCompletenessAsQuery) {
  // A session ranking is blocking and final, so it reports the
  // completeness of the one-shot Query of the same protein and k.
  Server server;
  const std::string symbol = WellStudiedSymbol(server, 0);
  Result<SessionInfo> opened =
      server.OpenSession(MakeProteinFunctionRequest(symbol));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Result<QueryResponse> live = server.QuerySession(opened.value().id, 5);
  ASSERT_TRUE(live.ok()) << live.status();
  Result<QueryResponse> oneshot =
      server.Query(MakeProteinFunctionRequest(symbol, 5));
  ASSERT_TRUE(oneshot.ok()) << oneshot.status();
  const serve::Completeness& a = live.value().completeness;
  const serve::Completeness& b = oneshot.value().completeness;
  EXPECT_TRUE(a.complete);
  EXPECT_TRUE(b.complete);
  EXPECT_GT(a.resolved, 0);
  EXPECT_EQ(a.resolved, b.resolved);
  EXPECT_EQ(a.bounded, b.bounded);
  EXPECT_EQ(a.refining, 0);
  EXPECT_EQ(b.refining, 0);
  EXPECT_EQ(a.widest_bracket, b.widest_bracket);
}

TEST(ApiServerTest, IdleSessionsAreEvicted) {
  Server server;
  const std::string symbol = WellStudiedSymbol(server, 0);
  Result<SessionInfo> idle =
      server.OpenSession(MakeProteinFunctionRequest(symbol));
  ASSERT_TRUE(idle.ok()) << idle.status();
  Result<SessionInfo> busy =
      server.OpenSession(MakeProteinFunctionRequest(symbol));
  ASSERT_TRUE(busy.ok()) << busy.status();

  // Burn server operations, touching only the busy session: every touch
  // resets its clock, so the sweep takes the idle one alone.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Query(MakeProteinFunctionRequest(symbol, 3)).ok());
    ASSERT_TRUE(server.QuerySession(busy.value().id, 3).ok());
  }
  EXPECT_EQ(server.EvictIdleSessions(3), 1u);
  EXPECT_EQ(server.session_count(), 1u);
  EXPECT_EQ(server.QuerySession(idle.value().id).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(server.MetricsSnapshot(),
                         "biorank_api_sessions_evicted_total"),
            1u);
  EXPECT_EQ(server.EvictIdleSessions(3), 0u);
  EXPECT_EQ(server.session_count(), 1u);

  // A one-op threshold evicts once later operations age the session.
  ASSERT_TRUE(server.Query(MakeProteinFunctionRequest(symbol, 3)).ok());
  ASSERT_TRUE(server.Query(MakeProteinFunctionRequest(symbol, 3)).ok());
  EXPECT_EQ(server.EvictIdleSessions(1), 1u);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(ApiServerTest, StatsCountServedTraffic) {
  Server server;
  const std::string symbol = WellStudiedSymbol(server, 1);
  ASSERT_TRUE(server.Query(MakeProteinFunctionRequest(symbol, 5)).ok());
  ASSERT_TRUE(server
                  .RunBatch({MakeProteinFunctionRequest(symbol, 5),
                             MakeProteinFunctionRequest(symbol, 5)})
                  .ok());
  Result<SessionInfo> session =
      server.OpenSession(MakeProteinFunctionRequest(symbol));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server.QuerySession(session.value().id, 5).ok());
  ASSERT_TRUE(server.CloseSession(session.value().id).ok());

  const obs::Snapshot metrics = server.MetricsSnapshot();
  // One direct + two batched.
  EXPECT_EQ(CounterValue(metrics, "biorank_api_queries_total"), 3u);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_batches_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_batch_requests_total"), 2u);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_sessions_opened_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_sessions_closed_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_session_queries_total"), 1u);
  EXPECT_EQ(GaugeValue(metrics, "biorank_api_open_sessions"), 0.0);
  const double entries = GaugeValue(metrics, "biorank_serve_cache_entries");
  EXPECT_GT(entries, 0.0);
  // The cache snapshot invariant the hammer test also asserts.
  EXPECT_EQ(CounterValue(metrics, "biorank_serve_cache_insertions_total") -
                CounterValue(metrics, "biorank_serve_cache_evictions_total") -
                CounterValue(metrics, "biorank_serve_cache_invalidations_total"),
            static_cast<uint64_t>(entries));
}

TEST(ApiServerTest, EveryRequestErrorCountsOnce) {
  // Each entry point that returns an error status bumps
  // biorank_api_errors_total by exactly one, whichever step failed.
  Server server;
  auto errors = [&server] {
    return CounterValue(server.MetricsSnapshot(), "biorank_api_errors_total");
  };
  ASSERT_EQ(errors(), 0u);
  EXPECT_EQ(server.Query(MakeProteinFunctionRequest("NO_SUCH_GENE"))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(errors(), 1u);
  QueryGraph duplicate = MakeFig4aSerialParallel();
  duplicate.answers.push_back(duplicate.answers[0]);
  EXPECT_EQ(server.RankGraph(duplicate, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(errors(), 2u);
  EXPECT_EQ(server.Refine(RefinementHandle{999}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(errors(), 3u);
  EXPECT_EQ(server.QuerySession(999, 3).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(errors(), 4u);
  EXPECT_EQ(server.ApplyDelta(999, ingest::EvidenceDelta{}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(errors(), 5u);
  // Rejected session and refinement calls are request errors too.
  QueryRequest foreign_seed = MakeProteinFunctionRequest("NO_SUCH_GENE");
  foreign_seed.options.seed = server.options().ranking.seed + 1;
  EXPECT_EQ(server.OpenSession(foreign_seed).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(errors(), 6u);
  EXPECT_EQ(server.OpenSession(MakeProteinFunctionRequest("NO_SUCH_GENE"))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(errors(), 7u);
  EXPECT_EQ(server.SessionSnapshot(999).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(errors(), 8u);
  EXPECT_EQ(server.CloseSession(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(errors(), 9u);
  EXPECT_EQ(server.CancelRefinement(RefinementHandle{999}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(errors(), 10u);
}

TEST(ApiServerTest, RankGraphRejectsAnInvalidGraphWithNoAnswers) {
  // An empty answer set has nothing to rank, but a graph whose source is
  // not alive is still malformed, in either mode.
  Server& server = SharedServer();
  for (QueryMode mode : {QueryMode::kBlocking, QueryMode::kAnytime}) {
    QueryOptions options;
    options.mode = mode;
    EXPECT_EQ(server.RankGraph(QueryGraph{}, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  // A well-formed graph with no answers is still an empty, final ranking.
  QueryGraph no_answers = MakeFig4aSerialParallel();
  no_answers.answers.clear();
  Result<QueryResponse> empty = server.RankGraph(no_answers, 3);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty.value().top.empty());
  EXPECT_TRUE(empty.value().completeness.complete);
}

}  // namespace
}  // namespace biorank::api
