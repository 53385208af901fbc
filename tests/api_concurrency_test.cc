// Concurrency hammer for the api::Server session registry: many client
// threads opening, querying, snapshotting, and closing live sessions
// against one server (all sessions sharing one canonical reliability
// cache), racing a writer thread that applies evidence deltas to its own
// session. Run under ThreadSanitizer in CI (the tsan job). Asserts the
// two contracts the front door makes:
//
//  * determinism — every ranking a hammer thread observes on an
//    untouched graph is bit-identical to a serial replay recorded before
//    any thread started, no matter how opens/queries/deltas interleave;
//  * accounting — the shared cache's snapshot invariant (insertions -
//    evictions - invalidations == entries) and the server's session
//    counters survive the stampede.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/server.h"
#include "obs/metrics.h"
#include "testing/metrics.h"

namespace biorank::api {
namespace {

using testing::CounterValue;
using testing::GaugeValue;

TEST(ApiConcurrencyTest, SessionStampedeStaysDeterministic) {
  constexpr int kSymbols = 4;
  constexpr int kThreads = 6;
  constexpr int kIterations = 3;
  constexpr int kTopK = 10;

  Server server;
  std::vector<std::string> symbols;
  for (int i = 0; i < kSymbols + 1; ++i) {
    symbols.push_back(
        server.universe()
            .protein(server.universe().well_studied()[static_cast<size_t>(i)])
            .gene_symbol);
  }

  // Serial replay: the reference ranking per symbol, recorded before any
  // concurrency (and through the same facade).
  std::vector<std::vector<std::pair<NodeId, double>>> expected;
  for (int i = 0; i < kSymbols; ++i) {
    Result<SessionInfo> session =
        server.OpenSession(MakeProteinFunctionRequest(symbols[static_cast<size_t>(i)]));
    ASSERT_TRUE(session.ok()) << session.status();
    Result<QueryResponse> ranked = server.QuerySession(session.value().id, kTopK);
    ASSERT_TRUE(ranked.ok()) << ranked.status();
    expected.push_back(RankingFingerprint(ranked.value()));
    ASSERT_TRUE(server.CloseSession(session.value().id).ok());
  }

  // The hammer: kThreads open/query/snapshot/close sessions on clean
  // graphs while one extra writer thread applies deltas to its own
  // session on a fifth symbol. Cache invalidations from the writer may
  // orphan keys the clean sessions share — they must re-resolve to
  // bit-identical values, never to different ones.
  std::atomic<int> failures{0};
  std::atomic<int> deltas_ok{0};
  auto hammer = [&](int thread_index) {
    for (int iteration = 0; iteration < kIterations; ++iteration) {
      int symbol = (thread_index + iteration) % kSymbols;
      Result<SessionInfo> session = server.OpenSession(
          MakeProteinFunctionRequest(symbols[static_cast<size_t>(symbol)]));
      if (!session.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int pass = 0; pass < 2; ++pass) {
        Result<QueryResponse> ranked =
            server.QuerySession(session.value().id, kTopK);
        if (!ranked.ok() ||
            RankingFingerprint(ranked.value()) != expected[static_cast<size_t>(symbol)]) {
          failures.fetch_add(1);
        }
      }
      if (iteration == kIterations - 1 &&
          !server.SessionSnapshot(session.value().id).ok()) {
        failures.fetch_add(1);
      }
      if (!server.CloseSession(session.value().id).ok()) {
        failures.fetch_add(1);
      }
    }
  };
  auto writer = [&] {
    Result<SessionInfo> session = server.OpenSession(
        MakeProteinFunctionRequest(symbols[kSymbols]));
    if (!session.ok()) {
      failures.fetch_add(1);
      return;
    }
    for (int iteration = 0; iteration < kIterations * 2; ++iteration) {
      ingest::EvidenceDelta delta;
      delta.revise_source_priors.push_back(
          {"AmiGO", iteration % 2 == 0 ? 0.9 : 1.0 / 0.9});
      if (server.ApplyDelta(session.value().id, delta).ok()) {
        deltas_ok.fetch_add(1);
      } else {
        failures.fetch_add(1);
      }
      if (!server.QuerySession(session.value().id, kTopK).ok()) {
        failures.fetch_add(1);
      }
    }
    if (!server.CloseSession(session.value().id).ok()) {
      failures.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(hammer, t);
  }
  threads.emplace_back(writer);
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(deltas_ok.load(), kIterations * 2);
  EXPECT_EQ(server.session_count(), 0u);

  const obs::Snapshot metrics = server.MetricsSnapshot();
  const uint64_t hammer_opens =
      static_cast<uint64_t>(kThreads) * kIterations + 1;
  EXPECT_EQ(CounterValue(metrics, "biorank_api_sessions_opened_total"),
            hammer_opens + kSymbols);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_sessions_closed_total"),
            hammer_opens + kSymbols);
  EXPECT_EQ(GaugeValue(metrics, "biorank_api_open_sessions"), 0.0);
  EXPECT_EQ(CounterValue(metrics, "biorank_ingest_deltas_total"),
            static_cast<uint64_t>(kIterations) * 2);
  // The cache-stat invariant under concurrent insertion, eviction, and
  // selective invalidation: the snapshot's collector reads all six cache
  // metrics from one CacheStats call, which holds every shard lock.
  EXPECT_EQ(CounterValue(metrics, "biorank_serve_cache_insertions_total") -
                CounterValue(metrics, "biorank_serve_cache_evictions_total") -
                CounterValue(metrics, "biorank_serve_cache_invalidations_total"),
            static_cast<uint64_t>(
                GaugeValue(metrics, "biorank_serve_cache_entries")));
}

TEST(ApiConcurrencyTest, ConcurrentBatchesMatchSerialReplay) {
  Server server;
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(MakeProteinFunctionRequest(
        server.universe()
            .protein(server.universe().well_studied()[static_cast<size_t>(i)])
            .gene_symbol,
        8));
  }
  // Serial replay through a second, fresh server.
  Server reference;
  std::vector<std::vector<std::pair<NodeId, double>>> expected;
  for (const QueryRequest& request : batch) {
    Result<QueryResponse> serial = reference.Query(request);
    ASSERT_TRUE(serial.ok()) << serial.status();
    expected.push_back(RankingFingerprint(serial.value()));
  }

  std::atomic<int> failures{0};
  auto run = [&] {
    for (int repeat = 0; repeat < 2; ++repeat) {
      Result<std::vector<QueryResponse>> fanned = server.RunBatch(batch);
      if (!fanned.ok() || fanned.value().size() != batch.size()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (RankingFingerprint(fanned.value()[i]) != expected[i]) failures.fetch_add(1);
      }
    }
  };
  std::thread a(run);
  std::thread b(run);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  const obs::Snapshot metrics = server.MetricsSnapshot();
  EXPECT_EQ(CounterValue(metrics, "biorank_api_batches_total"), 4u);
  EXPECT_EQ(CounterValue(metrics, "biorank_api_batch_requests_total"), 16u);
}

}  // namespace
}  // namespace biorank::api
