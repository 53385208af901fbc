// Mixed multi-session workload through the api::Server front door: the
// 20 Table-1 proteins served as interleaved one-shot batches (RunBatch
// fanning across the shared pool), live sessions taking evidence deltas,
// and post-update session queries — all sharing one canonical
// reliability cache. Gates the two front-door contracts:
//
//  * RunBatch output is bit-identical to serial single-request execution
//    (checked against a serial 1-thread server and a 4-way-capped
//    server — "at any thread count"), and live sessions stay
//    bit-identical to from-scratch rebuilds of their updated graphs;
//  * the mixed workload keeps riding the shared cache across phases
//    (mixed_hit_rate > 0.5 — batches re-resolve nothing that sessions
//    or earlier batches already resolved, deltas invalidate selectively).
//
// BENCH_api_server.json metrics: deterministic_batch,
// session_rebuild_identical, mixed_hit_rate (> 0.5 gate), per-phase
// latencies, session/eviction counters.

#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "api/server.h"
#include "bench_json.h"
#include "bench_util.h"
#include "core/query_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

namespace {

/// One update phase's delta for a live session: reweights ~2% of the
/// session graph's evidence edges and revises ~1% of its tuple
/// probabilities — deterministic in (session index, phase), touching
/// well under 10% of tuples so the shared cache stays mostly warm.
ingest::EvidenceDelta BuildDelta(const QueryGraph& graph,
                                 uint64_t session_index, uint64_t phase) {
  Rng rng = Rng::ForStream(20260726, session_index * 1000 + phase);
  ingest::EvidenceDelta delta;
  std::vector<EdgeId> edges;
  for (EdgeId e : graph.graph.AliveEdges()) {
    if (graph.graph.edge(e).from != graph.source) edges.push_back(e);
  }
  int reweights = std::max<int>(1, static_cast<int>(edges.size()) / 50);
  rng.Shuffle(edges);
  for (int i = 0; i < reweights && i < static_cast<int>(edges.size()); ++i) {
    double q = graph.graph.edge(edges[static_cast<size_t>(i)]).q;
    delta.reweight_edges.push_back(
        {edges[static_cast<size_t>(i)],
         std::min(1.0, std::max(0.05, q * rng.NextUniform(0.9, 1.1)))});
  }
  std::vector<NodeId> nodes = graph.graph.AliveNodes();
  rng.Shuffle(nodes);
  int revisions = std::max<int>(1, static_cast<int>(nodes.size()) / 100);
  int revised = 0;
  for (NodeId n : nodes) {
    if (revised >= revisions) break;
    if (n == graph.source) continue;
    double p = graph.graph.node(n).p;
    delta.revise_node_probs.push_back(
        {n, std::min(1.0, std::max(0.05, p * rng.NextUniform(0.95, 1.05)))});
    ++revised;
  }
  return delta;
}

}  // namespace

int main() {
  const int k = 10;
  const int phases = std::max(2, bench::Repetitions(3));
  std::cout << "=== api::Server mixed workload: batches + live sessions + "
               "deltas over the Table-1 graphs ("
            << phases << " phases, top-" << k << ") ===\n\n";

  api::Server server;
  std::vector<api::QueryRequest> requests;
  for (const ScenarioCase& spec :
       BuildScenarioCases(server.universe(), ScenarioId::kScenario1WellKnown)) {
    requests.push_back(api::MakeProteinFunctionRequest(spec.gene_symbol, k));
  }

  // Serial reference: the same requests, one at a time, on a fresh
  // 1-thread server. Every batched response must match bit for bit.
  api::ServerOptions serial_options;
  serial_options.ranking.num_threads = 1;
  api::Server serial(serial_options);
  std::vector<std::vector<std::pair<NodeId, double>>> expected;
  for (const api::QueryRequest& request : requests) {
    api::Result<api::QueryResponse> response = serial.Query(request);
    if (!response.ok()) {
      std::cerr << response.status() << "\n";
      return 1;
    }
    expected.push_back(api::RankingFingerprint(response.value()));
  }

  // Live sessions: one per protein, sharing the main server's cache.
  std::vector<api::SessionId> sessions;
  for (const api::QueryRequest& request : requests) {
    api::QueryRequest open = request;
    open.options.top_k = 0;
    api::Result<api::SessionInfo> session = server.OpenSession(open);
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }
    sessions.push_back(session.value().id);
  }

  bench::WallTimer workload_timer;
  bool deterministic_batch = true;
  serve::RequestStats mixed;
  double batch_s_total = 0.0;
  double update_ms_total = 0.0;
  double queue_s_total = 0.0;
  int updates = 0;
  TextTable table({"phase", "batch s", "batch hit", "update ms", "query s",
                   "session hit"});
  CsvWriter csv({"phase", "batch_s", "batch_hit_rate", "update_ms_mean",
                 "query_s", "session_hit_rate"});
  bench::JsonReport report("api_server");

  for (int phase = 0; phase < phases; ++phase) {
    // Batch pass: 20 independent one-shot requests across the pool.
    bench::WallTimer batch_timer;
    api::Result<std::vector<api::QueryResponse>> batch =
        server.RunBatch(requests);
    double batch_s = batch_timer.Seconds();
    batch_s_total += batch_s;
    if (!batch.ok()) {
      std::cerr << batch.status() << "\n";
      return 1;
    }
    serve::RequestStats batch_stats;
    for (size_t i = 0; i < batch.value().size(); ++i) {
      batch_stats.Add(batch.value()[i].stats);
      queue_s_total += batch.value()[i].timing.queue_s;
      if (api::RankingFingerprint(batch.value()[i]) != expected[i]) {
        deterministic_batch = false;
      }
    }
    mixed.Add(batch_stats);

    // Delta pass: one evidence update per live session.
    double phase_update_ms = 0.0;
    for (size_t i = 0; i < sessions.size(); ++i) {
      api::Result<QueryGraph> snapshot = server.SessionSnapshot(sessions[i]);
      if (!snapshot.ok()) {
        std::cerr << snapshot.status() << "\n";
        return 1;
      }
      ingest::EvidenceDelta delta = BuildDelta(
          snapshot.value(), i, static_cast<uint64_t>(phase));
      bench::WallTimer update_timer;
      api::Result<ingest::ApplyReport> applied =
          server.ApplyDelta(sessions[i], delta);
      phase_update_ms += update_timer.Seconds() * 1e3;
      ++updates;
      if (!applied.ok()) {
        std::cerr << applied.status() << "\n";
        return 1;
      }
    }
    update_ms_total += phase_update_ms;

    // Session query pass: the post-update live rankings.
    serve::RequestStats session_stats;
    bench::WallTimer query_timer;
    for (api::SessionId id : sessions) {
      api::Result<api::QueryResponse> response = server.QuerySession(id, k);
      if (!response.ok()) {
        std::cerr << response.status() << "\n";
        return 1;
      }
      session_stats.Add(response.value().stats);
    }
    double query_s = query_timer.Seconds();
    mixed.Add(session_stats);

    double update_ms_mean =
        phase_update_ms / static_cast<double>(sessions.size());
    std::vector<std::string> cells = {
        std::to_string(phase), FormatDouble(batch_s, 3),
        FormatDouble(batch_stats.CacheHitRate(), 3),
        FormatDouble(update_ms_mean, 3), FormatDouble(query_s, 3),
        FormatDouble(session_stats.CacheHitRate(), 3)};
    table.AddRow(cells);
    csv.AddRow(cells);
    report.AddRow({{"phase", phase},
                   {"batch_s", batch_s},
                   {"batch_hit_rate", batch_stats.CacheHitRate()},
                   {"update_ms_mean", update_ms_mean},
                   {"query_s", query_s},
                   {"session_hit_rate", session_stats.CacheHitRate()}});
  }
  double workload_s = workload_timer.Seconds();
  table.Print(std::cout);

  // "At any thread count": the same batch on a 4-way-capped fresh server
  // must reproduce the serial rankings too.
  api::ServerOptions quad_options;
  quad_options.ranking.num_threads = 4;
  api::Server quad(quad_options);
  api::Result<std::vector<api::QueryResponse>> quad_batch =
      quad.RunBatch(requests);
  if (!quad_batch.ok()) {
    std::cerr << quad_batch.status() << "\n";
    return 1;
  }
  for (size_t i = 0; i < quad_batch.value().size(); ++i) {
    if (api::RankingFingerprint(quad_batch.value()[i]) != expected[i]) {
      deterministic_batch = false;
    }
  }

  // Live sessions vs from-scratch rebuilds of their updated graphs.
  bool session_rebuild_identical = true;
  api::ServerOptions cold_options;
  cold_options.ranking.enable_cache = false;
  cold_options.ranking.num_threads = 1;
  api::Server cold(cold_options);
  for (api::SessionId id : sessions) {
    api::Result<QueryGraph> snapshot = server.SessionSnapshot(id);
    api::Result<api::QueryResponse> incremental = server.QuerySession(id, k);
    if (!snapshot.ok() || !incremental.ok()) {
      std::cerr << "session readback failed\n";
      return 1;
    }
    api::Result<api::QueryResponse> rebuilt =
        cold.RankGraph(snapshot.value(), k);
    if (!rebuilt.ok()) {
      std::cerr << rebuilt.status() << "\n";
      return 1;
    }
    if (api::RankingFingerprint(incremental.value()) != api::RankingFingerprint(rebuilt.value())) {
      session_rebuild_identical = false;
    }
  }

  // Anytime pass: the canonical irreducible residue (the Wheatstone
  // bridge) served bounds-first through RankGraph on an MC-forced
  // server, then refined to convergence in fixed-budget increments.
  // Measures the new PhaseTiming fields — queue_s (admission wait,
  // aggregated above across the whole mix) and refine_s (incremental MC
  // time) — and checks the fully refined ranking lands bit-identically
  // on an independent server's blocking fingerprint. (The protein mix
  // cannot drive this loop: its residues are bound-exact, so an anytime
  // protein query converges at the bounds pass with zero increments.)
  double anytime_refine_s = 0.0;
  int anytime_increments = 0;
  bool anytime_identical = true;
  {
    QueryGraph bridge = MakeFig4bWheatstoneBridge();
    api::ServerOptions fresh_options;
    fresh_options.ranking.exact_max_edges = 0;  // Bridge must MC-refine.
    api::Server fresh(fresh_options);
    api::QueryOptions anytime_options;
    anytime_options.mode = api::QueryMode::kAnytime;
    api::Result<api::QueryResponse> first =
        fresh.RankGraph(bridge, anytime_options);
    if (!first.ok()) {
      std::cerr << first.status() << "\n";
      return 1;
    }
    queue_s_total += first.value().timing.queue_s;
    anytime_refine_s += first.value().timing.refine_s;
    api::RefinementHandle handle = first.value().refinement;
    std::vector<std::pair<NodeId, double>> final_ranking =
        api::RankingFingerprint(first.value());
    while (handle.valid()) {
      api::QueryOptions step;
      step.mc_trial_budget = 2048;
      api::Result<api::QueryResponse> refined = fresh.Refine(handle, step);
      if (!refined.ok()) {
        std::cerr << refined.status() << "\n";
        return 1;
      }
      ++anytime_increments;
      anytime_refine_s += refined.value().timing.refine_s;
      queue_s_total += refined.value().timing.queue_s;
      handle = refined.value().refinement;
      final_ranking = api::RankingFingerprint(refined.value());
    }
    api::Server reference(fresh_options);
    api::Result<api::QueryResponse> blocking = reference.RankGraph(bridge, 0);
    if (!blocking.ok()) {
      std::cerr << blocking.status() << "\n";
      return 1;
    }
    anytime_identical =
        final_ranking == api::RankingFingerprint(blocking.value());
  }

  // Tracing on vs. off must be bit-identical (the obs layer's
  // zero-perturbation contract): re-serve the first request with a
  // caller trace attached and compare against the serial fingerprint.
  bool tracing_identical = true;
  {
    obs::Trace trace(1);
    api::QueryRequest traced = requests[0];
    traced.options.trace = &trace;
    api::Result<api::QueryResponse> response = server.Query(traced);
    if (!response.ok()) {
      std::cerr << response.status() << "\n";
      return 1;
    }
    tracing_identical =
        api::RankingFingerprint(response.value()) == expected[0] &&
        trace.SpanCount() > 0;
  }

  // Idle eviction: retire every session through the registry's sweep
  // (each CloseSession/EvictIdleSessions path is exercised).
  if (!server.CloseSession(sessions[0]).ok()) {
    std::cerr << "close failed\n";
    return 1;
  }
  size_t evicted = server.EvictIdleSessions(0);

  const obs::Snapshot metrics = server.MetricsSnapshot();
  auto counter = [&metrics](const char* name) {
    return static_cast<int64_t>(bench::CounterValue(metrics, name));
  };
  double mixed_hit_rate = mixed.CacheHitRate();
  double update_ms_mean =
      updates == 0 ? 0.0 : update_ms_total / static_cast<double>(updates);
  // The in-phase request counts `mixed` actually aggregated (the
  // rebuild-check session queries below the phase loop are not part of
  // the measured mix).
  const size_t mixed_batch_requests = requests.size() * phases;
  const size_t mixed_session_queries = sessions.size() * phases;
  std::cout << "\nAggregate: mixed hit rate " << FormatDouble(mixed_hit_rate, 3)
            << " over " << mixed_batch_requests << " batched requests + "
            << mixed_session_queries << " session queries, "
            << counter("biorank_ingest_deltas_total") << " deltas (mean "
            << FormatDouble(update_ms_mean, 3) << " ms), " << evicted
            << " sessions idle-evicted at shutdown.\n"
            << "RunBatch " << (deterministic_batch ? "bit-identical" : "DIVERGED")
            << " vs serial execution (1-thread and 4-way servers); sessions "
            << (session_rebuild_identical ? "bit-identical" : "DIVERGED")
            << " vs from-scratch rebuilds.\n"
            << "Anytime: refined to the blocking ranking in "
            << anytime_increments << " increments ("
            << FormatDouble(anytime_refine_s, 3) << " s refining), "
            << (anytime_identical ? "bit-identical" : "DIVERGED")
            << "; admission queue wait " << FormatDouble(queue_s_total, 4)
            << " s across the mix.\n";
  bench::MaybeWriteCsv(csv, "api_server");

  report.SetWallTime(workload_s);
  report.SetMetric("k", k);
  report.SetMetric("phases", phases);
  report.SetMetric("graphs", static_cast<int64_t>(requests.size()));
  report.SetMetric("batches", counter("biorank_api_batches_total"));
  report.SetMetric("batch_requests",
                   counter("biorank_api_batch_requests_total"));
  report.SetMetric("session_queries",
                   counter("biorank_api_session_queries_total"));
  report.SetMetric("deltas", counter("biorank_ingest_deltas_total"));
  report.SetMetric("sessions_opened",
                   counter("biorank_api_sessions_opened_total"));
  report.SetMetric("sessions_evicted",
                   counter("biorank_api_sessions_evicted_total"));
  report.SetMetric("mixed_hit_rate", mixed_hit_rate);
  report.SetMetric("batch_s_mean", batch_s_total / phases);
  report.SetMetric("update_ms_mean", update_ms_mean);
  report.SetMetric("cache_entries",
                   static_cast<int64_t>(bench::GaugeValue(
                       metrics, "biorank_serve_cache_entries")));
  report.SetMetric("cache_invalidations",
                   counter("biorank_serve_cache_invalidations_total"));
  report.SetMetric("queue_s_total", queue_s_total);
  report.SetMetric("anytime_refine_s", anytime_refine_s);
  report.SetMetric("anytime_increments", anytime_increments);
  report.SetMetric("deterministic_batch", deterministic_batch);
  report.SetMetric("session_rebuild_identical", session_rebuild_identical);
  report.SetMetric("anytime_identical", anytime_identical);
  report.SetMetric("tracing_identical", tracing_identical);

  // The served latency distribution, read back from the shared
  // biorank_api_query_seconds histogram — the same numbers a Prometheus
  // scrape of this server would report.
  report.SetMetric("metrics_exposed",
                   static_cast<int64_t>(metrics.MetricCount()));
  if (const obs::HistogramSnapshot* h =
          metrics.FindHistogram("biorank_api_query_seconds")) {
    report.SetMetric("hist_queries", static_cast<int64_t>(h->count));
    bench::SetQuantileMs(report, "hist_p50_ms", *h, 0.5);
    bench::SetQuantileMs(report, "hist_p99_ms", *h, 0.99);
    bench::SetQuantileMs(report, "hist_p999_ms", *h, 0.999);
  }
  Status metrics_status =
      bench::WriteMetricsDump("api_server", server.MetricsText());
  Status write_status = report.Write();

  bool hit_gate = mixed_hit_rate > 0.5;
  if (!hit_gate) {
    std::cerr << "api gate FAILED: need mixed_hit_rate > 0.5\n";
  }
  if (!deterministic_batch) {
    std::cerr << "api gate FAILED: RunBatch diverged from serial execution\n";
  }
  if (!session_rebuild_identical) {
    std::cerr << "api gate FAILED: session output diverged from rebuild\n";
  }
  if (!anytime_identical) {
    std::cerr << "api gate FAILED: refined anytime ranking diverged from "
                 "the blocking answer\n";
  }
  if (!tracing_identical) {
    std::cerr << "api gate FAILED: tracing perturbed the ranking\n";
  }
  return deterministic_batch && session_rebuild_identical && hit_gate &&
                 anytime_identical && tracing_identical &&
                 write_status.ok() && metrics_status.ok()
             ? 0
             : 1;
}
