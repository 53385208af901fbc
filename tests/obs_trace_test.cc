// Request tracing: span nesting via the thread-local binding, explicit
// cross-thread parent attach, the slow-query ring buffer, and — the
// load-bearing contract — zero perturbation: tracing on vs. off is
// bit-identical for every ranking. Runs under the concurrency ctest
// label (concurrent span writers hammer one Trace).

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/query.h"
#include "api/server.h"
#include "core/query_graph.h"
#include "obs/export.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "testing/metrics.h"

namespace biorank {
namespace {

TEST(ObsTraceTest, SpanScopeNestsUnderThreadBinding) {
  obs::Trace trace(7);
  EXPECT_EQ(trace.id(), 7u);
  {
    obs::SpanScope root(&trace, "root");
    EXPECT_EQ(obs::CurrentTrace(), &trace);
    EXPECT_EQ(obs::CurrentSpanIndex(), root.index());
    {
      obs::SpanScope child(&trace, "child");
      obs::SpanScope grand(&trace, "grand");
      grand.Counter("k", 3);
    }
    // The nested scopes unwound; a new scope is root's child again.
    obs::SpanScope sibling(&trace, "sibling");
  }
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  std::vector<obs::Span> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "grand");
  EXPECT_EQ(spans[2].parent, 1);
  ASSERT_EQ(spans[2].counters.size(), 1u);
  EXPECT_EQ(spans[2].counters[0].first, "k");
  EXPECT_EQ(spans[2].counters[0].second, 3);
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].parent, 0);
  for (const obs::Span& span : spans) {
    EXPECT_GT(span.duration_ns, 0u) << span.name;
  }
}

TEST(ObsTraceTest, NullTraceScopeIsANoOp) {
  obs::SpanScope scope(nullptr, "nothing");
  scope.Counter("k", 1);
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  scope.End();  // Idempotent on a no-op scope.
}

TEST(ObsTraceTest, ExplicitParentAttachesAcrossThreads) {
  obs::Trace trace;
  obs::SpanScope root(&trace, "root");
  std::thread worker([&trace, parent = root.index()] {
    // A pool thread has no binding for this trace; the fan-out passes
    // the parent index explicitly and the scope binds from there.
    EXPECT_EQ(obs::CurrentTrace(), nullptr);
    obs::SpanScope worker_span(&trace, "serve.mc_shards", parent);
    obs::SpanScope inner(&trace, "inner");  // nests via the new binding
    EXPECT_EQ(inner.index(), 2);
  });
  worker.join();
  root.End();
  std::vector<obs::Span> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].name, "serve.mc_shards");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
}

TEST(ObsTraceTest, ForeignTraceRootsInsteadOfNesting) {
  obs::Trace a;
  obs::Trace b;
  obs::SpanScope in_a(&a, "a.root");
  obs::SpanScope in_b(&b, "b.root");  // different trace: roots, not nests
  in_b.End();
  in_a.End();
  EXPECT_EQ(b.Spans()[0].parent, -1);
  // After both scopes closed, the binding is fully unwound.
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
}

TEST(ObsTraceTest, ConcurrentSpanWritersLoseNothing) {
  obs::Trace trace;
  obs::SpanScope root(&trace, "root");
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&trace, parent = root.index()] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::SpanScope span(&trace, "work", parent);
        span.Counter("i", i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  root.End();
  std::vector<obs::Span> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u + kThreads * kSpansPerThread);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent, 0);
  }
}

TEST(ObsSlowQueryLogTest, ThresholdFiltersAndRingEvicts) {
  obs::SlowQueryLog log(/*capacity=*/2, /*threshold_s=*/0.01);
  obs::Trace fast(1);
  EXPECT_FALSE(log.Offer("Query", fast, 0.005));
  for (uint64_t id = 2; id <= 4; ++id) {
    obs::Trace slow(id);
    obs::SpanScope root(&slow, "api.query");
    root.End();
    EXPECT_TRUE(log.Offer("Query", slow, 0.02));
  }
  EXPECT_EQ(log.offered(), 4u);
  EXPECT_EQ(log.captured(), 3u);
  std::vector<obs::CapturedTrace> captured = log.Snapshot();
  ASSERT_EQ(captured.size(), 2u);  // oldest (id 2) evicted
  EXPECT_EQ(captured[0].id, 3u);
  EXPECT_EQ(captured[1].id, 4u);
  EXPECT_EQ(captured[1].entry_point, "Query");
  ASSERT_EQ(captured[1].spans.size(), 1u);
}

TEST(ObsSlowQueryLogTest, ZeroThresholdDisablesCapture) {
  obs::SlowQueryLog log(/*capacity=*/4, /*threshold_s=*/0.0);
  obs::Trace trace;
  EXPECT_FALSE(log.Offer("Query", trace, 1e9));
  EXPECT_EQ(log.offered(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

/// One server per suite: MC forced on every survivor (exact factoring
/// off) so traces exercise the serve.mc_shards fan-out, and a
/// threshold low enough that every request is "slow".
api::Server& TracedServer() {
  static api::Server* server = [] {
    api::ServerOptions options;
    options.ranking.exact_max_edges = 0;
    options.obs.slow_query_threshold_s = 1e-12;
    return new api::Server(options);
  }();
  return *server;
}

TEST(ObsTracingIntegrationTest, TracingOnVsOffIsBitIdentical) {
  api::Server& server = TracedServer();
  const QueryGraph bridge = MakeFig4bWheatstoneBridge();
  api::QueryOptions untraced;
  // Two untraced passes first (cold then cached), then a traced pass:
  // the fingerprints must all agree bit for bit.
  api::Result<api::QueryResponse> cold = server.RankGraph(bridge, untraced);
  ASSERT_TRUE(cold.ok()) << cold.status();
  api::Result<api::QueryResponse> warm = server.RankGraph(bridge, untraced);
  ASSERT_TRUE(warm.ok()) << warm.status();
  obs::Trace trace(99);
  api::QueryOptions traced = untraced;
  traced.trace = &trace;
  api::Result<api::QueryResponse> with = server.RankGraph(bridge, traced);
  ASSERT_TRUE(with.ok()) << with.status();
  EXPECT_EQ(api::RankingFingerprint(cold.value()),
            api::RankingFingerprint(warm.value()));
  EXPECT_EQ(api::RankingFingerprint(cold.value()),
            api::RankingFingerprint(with.value()));
  EXPECT_GT(trace.SpanCount(), 0u);
}

TEST(ObsTracingIntegrationTest, SlowQueryCaptureHasNestedSpanTree) {
  api::Server& server = TracedServer();
  // Blocking and anytime-run-to-convergence share one pipeline, so both
  // must leave the same serve-phase spans.
  api::QueryOptions blocking;
  api::QueryOptions anytime;
  anytime.mode = api::QueryMode::kAnytime;
  anytime.budget_s = 60.0;
  const std::pair<const char*, api::QueryOptions> inputs[] = {
      {"blocking", blocking}, {"anytime", anytime}};
  double scale = 0.99;
  for (const auto& [mode, options] : inputs) {
    SCOPED_TRACE(mode);
    // A fresh irreducible graph (not in the cache yet) so the capture
    // shows real MC work, served with no caller trace: the server's own
    // slow-query trace does the recording.
    QueryGraph bridge = MakeFig4bWheatstoneBridge();
    for (EdgeId e = 0; e < bridge.graph.num_edges(); ++e) {
      ASSERT_TRUE(
          bridge.graph.SetEdgeProb(e, bridge.graph.edge(e).q * scale).ok());
    }
    scale -= 0.01;
    api::Result<api::QueryResponse> response =
        server.RankGraph(bridge, options);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response.value().completeness.complete);
    std::vector<obs::CapturedTrace> captured =
        server.slow_queries().Snapshot();
    ASSERT_FALSE(captured.empty());
    const obs::CapturedTrace& last = captured.back();
    EXPECT_EQ(last.entry_point, "RankGraph");
    // The tree: an api.rank_graph root whose descendants include the
    // serve phases and at least one MC shard span.
    ASSERT_FALSE(last.spans.empty());
    EXPECT_EQ(last.spans[0].name, "api.rank_graph");
    EXPECT_EQ(last.spans[0].parent, -1);
    auto has = [&last](const std::string& name) {
      for (const obs::Span& span : last.spans) {
        if (span.name == name) return true;
      }
      return false;
    };
    EXPECT_TRUE(has("api.rank"));
    EXPECT_TRUE(has("serve.canonicalize"));
    EXPECT_TRUE(has("serve.cache_bounds"));
    EXPECT_TRUE(has("serve.prune"));
    EXPECT_TRUE(has("serve.resolve"));
    EXPECT_TRUE(has("serve.mc_shards"));
    EXPECT_TRUE(has("serve.publish"));
    // Every non-root span's parent is a valid earlier index — a tree,
    // not a forest with dangling edges.
    for (size_t i = 1; i < last.spans.size(); ++i) {
      EXPECT_GE(last.spans[i].parent, 0) << last.spans[i].name;
      EXPECT_LT(last.spans[i].parent, static_cast<int>(i))
          << last.spans[i].name;
    }
    const std::string tree = obs::RenderTraceTree(last);
    EXPECT_NE(tree.find("api.rank_graph"), std::string::npos);
    EXPECT_NE(tree.find("serve.mc_shards"), std::string::npos);
  }
  // Metrics agree that a capture happened.
  const std::string text = server.MetricsText();
  EXPECT_NE(text.find("biorank_api_slow_queries_total"), std::string::npos);
}

TEST(ObsTracingIntegrationTest, SessionQueryRunsUnderTheRequestSkeleton) {
  // A session query is a request like any other: with capture armed the
  // server traces it under an api.query_session root, the serve phases
  // nest beneath that root, and the slow-query ring keeps the tree.
  api::ServerOptions options;
  options.obs.slow_query_threshold_s = 1e-12;
  api::Server server(options);
  const ProteinUniverse& universe = server.universe();
  api::Result<api::SessionInfo> session =
      server.OpenSession(api::MakeProteinFunctionRequest(
          universe.protein(universe.well_studied()[0]).gene_symbol));
  ASSERT_TRUE(session.ok()) << session.status();
  api::Result<api::QueryResponse> ranked =
      server.QuerySession(session.value().id, 5);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_EQ(ranked.value().top.size(), 5u);

  std::vector<obs::CapturedTrace> captured = server.slow_queries().Snapshot();
  ASSERT_EQ(captured.size(), 1u);  // OpenSession is not a traced request.
  const obs::CapturedTrace& trace = captured[0];
  EXPECT_EQ(trace.entry_point, "QuerySession");
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_EQ(trace.spans[0].name, "api.query_session");
  EXPECT_EQ(trace.spans[0].parent, -1);
  std::vector<std::string> names;
  for (size_t i = 1; i < trace.spans.size(); ++i) {
    names.push_back(trace.spans[i].name);
    EXPECT_GE(trace.spans[i].parent, 0) << trace.spans[i].name;
    EXPECT_LT(trace.spans[i].parent, static_cast<int>(i))
        << trace.spans[i].name;
  }
  for (const char* name :
       {"api.admit", "serve.cache_bounds", "serve.prune", "serve.publish"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  const obs::Snapshot metrics = server.MetricsSnapshot();
  EXPECT_EQ(testing::CounterValue(metrics, "biorank_api_slow_queries_total"),
            1u);
  EXPECT_EQ(testing::CounterValue(metrics,
                                  "biorank_api_admission_admitted_total"),
            1u);
}

TEST(ObsTracingIntegrationTest, ServerExportsTheMetricSurface) {
  api::Server& server = TracedServer();
  obs::Snapshot snapshot = server.MetricsSnapshot();
  // The acceptance floor: >= 20 distinct metrics spanning the layers,
  // including the end-to-end and MC latency histograms.
  EXPECT_GE(snapshot.MetricCount(), 20u);
  EXPECT_NE(snapshot.FindHistogram("biorank_api_query_seconds"), nullptr);
  EXPECT_NE(snapshot.FindHistogram("biorank_serve_mc_seconds"), nullptr);
  EXPECT_NE(snapshot.FindCounter("biorank_ingest_deltas_total"), nullptr);
  EXPECT_NE(snapshot.FindCounter("biorank_serve_candidates_total"), nullptr);
}


/// The sorted `# TYPE <name> <kind>` lines of a Prometheus exposition:
/// which metric families a server exports, and of which kind.
std::vector<std::string> TypeLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# TYPE ", 0) == 0) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// The families every server exports once it has served a request,
/// sorted. A durable server adds the four WAL families after these.
std::vector<std::string> ServerFamilies() {
  return {
      "# TYPE biorank_api_admission_admitted_total counter",
      "# TYPE biorank_api_admission_inflight gauge",
      "# TYPE biorank_api_admission_peak_queue_depth gauge",
      "# TYPE biorank_api_admission_queue_depth gauge",
      "# TYPE biorank_api_admission_queue_wait_seconds gauge",
      "# TYPE biorank_api_admission_queued_total counter",
      "# TYPE biorank_api_admission_rejected_capacity_total counter",
      "# TYPE biorank_api_admission_rejected_deadline_total counter",
      "# TYPE biorank_api_batch_requests_total counter",
      "# TYPE biorank_api_batches_total counter",
      "# TYPE biorank_api_errors_total counter",
      "# TYPE biorank_api_graph_rankings_total counter",
      "# TYPE biorank_api_integrate_seconds histogram",
      "# TYPE biorank_api_open_refinements gauge",
      "# TYPE biorank_api_open_sessions gauge",
      "# TYPE biorank_api_queries_total counter",
      "# TYPE biorank_api_query_seconds histogram",
      "# TYPE biorank_api_queue_seconds histogram",
      "# TYPE biorank_api_rank_seconds histogram",
      "# TYPE biorank_api_refine_seconds histogram",
      "# TYPE biorank_api_refinements_cancelled_total counter",
      "# TYPE biorank_api_refinements_completed_total counter",
      "# TYPE biorank_api_refinements_started_total counter",
      "# TYPE biorank_api_session_queries_total counter",
      "# TYPE biorank_api_sessions_closed_total counter",
      "# TYPE biorank_api_sessions_evicted_total counter",
      "# TYPE biorank_api_sessions_opened_total counter",
      "# TYPE biorank_api_slow_queries_total counter",
      "# TYPE biorank_ingest_apply_seconds histogram",
      "# TYPE biorank_ingest_delta_ops_total counter",
      "# TYPE biorank_ingest_deltas_total counter",
      "# TYPE biorank_ingest_dirty_answers_total counter",
      "# TYPE biorank_ingest_invalidated_entries_total counter",
      "# TYPE biorank_serve_bound_exact_total counter",
      "# TYPE biorank_serve_bounds_seconds histogram",
      "# TYPE biorank_serve_cache_entries gauge",
      "# TYPE biorank_serve_cache_evictions_total counter",
      "# TYPE biorank_serve_cache_hits_total counter",
      "# TYPE biorank_serve_cache_insertions_total counter",
      "# TYPE biorank_serve_cache_invalidations_total counter",
      "# TYPE biorank_serve_cache_misses_total counter",
      "# TYPE biorank_serve_candidates_total counter",
      "# TYPE biorank_serve_exact_total counter",
      "# TYPE biorank_serve_mc_seconds histogram",
      "# TYPE biorank_serve_mc_trials_total counter",
      "# TYPE biorank_serve_monte_carlo_total counter",
      "# TYPE biorank_serve_pruned_total counter",
      "# TYPE biorank_storage_checkpoints_total counter",
      "# TYPE biorank_storage_recovery_seconds histogram",
      "# TYPE biorank_storage_replayed_records_total counter",
      "# TYPE biorank_storage_snapshot_write_seconds histogram",
  };
}

TEST(ObsMetricFamiliesTest, MemoryOnlyServerAfterOneQuery) {
  api::Server server;
  const ProteinUniverse& universe = server.universe();
  const std::string symbol =
      universe.protein(universe.well_studied()[0]).gene_symbol;
  ASSERT_TRUE(server.Query(api::MakeProteinFunctionRequest(symbol, 5)).ok());
  EXPECT_EQ(TypeLines(server.MetricsText()), ServerFamilies());
  // Every histogram keeps the one latency ladder: 28 doublings from 1us.
  for (const obs::HistogramSnapshot& h : server.MetricsSnapshot().histograms) {
    ASSERT_EQ(h.bounds.size(), 28u) << h.name;
    EXPECT_EQ(h.bounds.front(), 1e-6) << h.name;
  }
}

TEST(ObsMetricFamiliesTest, DurableServerAfterSessionDeltaAndCheckpoint) {
  const std::string dir = ::testing::TempDir() + "/obs_metric_families";
  for (const auto& [lsn, path] : storage::ListSnapshots(dir)) {
    (void)lsn;
    std::remove(path.c_str());
  }
  std::remove(storage::WalPath(dir).c_str());
  ::rmdir(dir.c_str());
  api::ServerOptions options;
  options.storage_dir = dir;
  api::Server server(options);
  ASSERT_TRUE(server.durable()) << server.storage_status();
  const ProteinUniverse& universe = server.universe();
  const std::string symbol =
      universe.protein(universe.well_studied()[0]).gene_symbol;
  api::Result<api::SessionInfo> session =
      server.OpenSession(api::MakeProteinFunctionRequest(symbol));
  ASSERT_TRUE(session.ok()) << session.status();
  ingest::EvidenceDelta delta;
  delta.revise_source_priors.push_back({"AmiGO", 0.9});
  ASSERT_TRUE(server.ApplyDelta(session.value().id, delta).ok());
  ASSERT_TRUE(server.Checkpoint().ok());
  std::vector<std::string> expected = ServerFamilies();
  expected.insert(expected.end(),
                  {"# TYPE biorank_storage_wal_append_seconds histogram",
                   "# TYPE biorank_storage_wal_bytes_total counter",
                   "# TYPE biorank_storage_wal_records_total counter",
                   "# TYPE biorank_storage_wal_syncs_total counter"});
  EXPECT_EQ(TypeLines(server.MetricsText()), expected);
}

}  // namespace
}  // namespace biorank
