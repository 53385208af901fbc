// Request tracing: span nesting via the thread-local binding, explicit
// cross-thread parent attach, the slow-query ring buffer, and — the
// load-bearing contract — zero perturbation: tracing on vs. off is
// bit-identical for every ranking. Runs under the concurrency ctest
// label (concurrent span writers hammer one Trace).

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/query.h"
#include "api/server.h"
#include "core/query_graph.h"
#include "obs/export.h"

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
    options.obs.slow_trace_capacity = 8;
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

}  // namespace
}  // namespace biorank
