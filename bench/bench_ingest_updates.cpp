// The mixed query/update workload of the ingest layer: the 20 Table-1
// scenario graphs stood up as live api::Server sessions (all sharing the
// server's canonical reliability cache), then alternating phases of
// evidence deltas (each touching <= 10% of a graph's tuples) and top-k
// query passes through the session API.
//
// What the serving story claims — and this bench gates — is that an
// update does NOT cost the reliability cache: only the dirtied answers'
// keys leave, so the post-update query pass still hits for every clean
// answer (preserved_hit_rate > 0.5; ~0.7 on this workload, whose hub
// evidence — protein->gene edges shared by many answers — makes small
// deltas dirty disproportionately many answers),
// and the incrementally maintained output stays bit-identical to a
// from-scratch rebuild of the updated graph (cache on or off, 1 or 4
// threads).
//
// BENCH_ingest_updates.json metrics: preserved_hit_rate (> 0.5 gate),
// deterministic_output, touched_fraction_max (<= 0.10 workload sanity),
// update_latency_ms_mean / _max, invalidated_entries.

#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "api/server.h"
#include "bench_json.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

namespace {

/// One update phase's delta for a live graph: reweights ~3% of evidence
/// edges, revises ~1% of tuple probabilities, retracts one evidence
/// edge, and files one fresh annotation path — all deterministic in
/// (graph, phase) and together touching well under 10% of the graph's
/// tuples.
struct BuiltDelta {
  ingest::EvidenceDelta delta;
  int touched_tuples = 0;  ///< Distinct nodes + edges the delta touches.
};

BuiltDelta BuildDelta(const QueryGraph& graph, uint64_t graph_index,
                      uint64_t phase) {
  Rng rng = Rng::ForStream(20260726, graph_index * 1000 + phase);
  BuiltDelta built;
  ingest::EvidenceDelta& delta = built.delta;
  // Update only evidence tuples: the source's Match out-edges are the
  // query itself (touching one dirties every answer at once, which is a
  // re-query, not an update).
  std::vector<EdgeId> edges;
  for (EdgeId e : graph.graph.AliveEdges()) {
    if (graph.graph.edge(e).from != graph.source) edges.push_back(e);
  }
  std::vector<NodeId> nodes = graph.graph.AliveNodes();

  int reweights = std::max<int>(1, static_cast<int>(edges.size()) * 3 / 100);
  rng.Shuffle(edges);
  for (int i = 0; i < reweights && i < static_cast<int>(edges.size()); ++i) {
    double q = graph.graph.edge(edges[static_cast<size_t>(i)]).q;
    double revised =
        std::min(1.0, std::max(0.05, q * rng.NextUniform(0.85, 1.15)));
    delta.reweight_edges.push_back({edges[static_cast<size_t>(i)], revised});
  }
  // One retraction, from the tail of the shuffle so it never collides
  // with a reweight of the same edge.
  if (edges.size() > static_cast<size_t>(reweights) + 1) {
    delta.remove_edges.push_back({edges.back()});
  }

  int revisions = std::max<int>(1, static_cast<int>(nodes.size()) / 100);
  rng.Shuffle(nodes);
  int revised_nodes = 0;
  for (NodeId n : nodes) {
    if (revised_nodes >= revisions) break;
    if (n == graph.source) continue;
    double p = graph.graph.node(n).p;
    delta.revise_node_probs.push_back(
        {n, std::min(1.0, std::max(0.05, p * rng.NextUniform(0.9, 1.1)))});
    ++revised_nodes;
  }

  // One fresh annotation: a new evidence tuple linking the query to a
  // random answer.
  if (!graph.answers.empty()) {
    delta.add_nodes.push_back({rng.NextUniform(0.5, 0.95), "fresh", ""});
    NodeId target = graph.answers[static_cast<size_t>(
        rng.NextBounded(graph.answers.size()))];
    delta.add_edges.push_back({graph.source,
                               ingest::EvidenceDelta::NewNodeRef(0),
                               rng.NextUniform(0.4, 0.9)});
    delta.add_edges.push_back({ingest::EvidenceDelta::NewNodeRef(0), target,
                               rng.NextUniform(0.4, 0.9)});
  }

  built.touched_tuples = static_cast<int>(
      delta.reweight_edges.size() + delta.remove_edges.size() +
      delta.revise_node_probs.size() + delta.add_nodes.size() +
      delta.add_edges.size());
  return built;
}

}  // namespace

int main() {
  const int k = 10;
  // Each phase is one delta per graph followed by one query pass; at
  // least 2 phases so the gate sees a steady state, not a lucky warm-up.
  const int phases = std::max(2, bench::Repetitions(3));
  std::cout << "=== Ingest updates: scenario-1 live graphs, " << phases
            << " update/query phases (top-" << k << ") ===\n\n";

  api::Server server;
  bench::WallTimer total_timer;
  std::vector<api::SessionId> live;
  for (const ScenarioCase& spec :
       BuildScenarioCases(server.universe(), ScenarioId::kScenario1WellKnown)) {
    api::Result<api::SessionInfo> session = server.OpenSession(
        api::MakeProteinFunctionRequest(spec.gene_symbol));
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }
    live.push_back(session.value().id);
  }

  // Warm pass: resolve and cache every answer's canonical key.
  for (api::SessionId id : live) {
    api::Result<api::QueryResponse> r = server.QuerySession(id, k);
    if (!r.ok()) {
      std::cerr << r.status() << "\n";
      return 1;
    }
  }

  TextTable table({"phase", "preserved hit", "dirty", "clean", "stale keys",
                   "invalidated", "update ms", "query s"});
  CsvWriter csv({"phase", "preserved_hit_rate", "dirty", "clean",
                 "stale_keys", "invalidated", "update_ms", "query_s"});
  bench::JsonReport report("ingest_updates");

  serve::RequestStats preserved_total;
  double update_ms_total = 0.0;
  double update_ms_max = 0.0;
  int updates = 0;
  double touched_fraction_max = 0.0;
  int64_t dirty_total = 0;
  int64_t clean_total = 0;
  int64_t stale_total = 0;
  int64_t invalidated_total = 0;

  for (int phase = 0; phase < phases; ++phase) {
    // Update phase: one delta per live graph.
    int dirty = 0;
    int clean = 0;
    int64_t stale = 0;
    int64_t invalidated = 0;
    double phase_update_ms = 0.0;
    for (size_t i = 0; i < live.size(); ++i) {
      api::Result<QueryGraph> snapshot_result = server.SessionSnapshot(live[i]);
      if (!snapshot_result.ok()) {
        std::cerr << snapshot_result.status() << "\n";
        return 1;
      }
      QueryGraph snapshot = std::move(snapshot_result.value());
      BuiltDelta built = BuildDelta(snapshot, i, static_cast<uint64_t>(phase));
      int tuples =
          snapshot.graph.num_nodes() + snapshot.graph.num_edges();
      touched_fraction_max =
          std::max(touched_fraction_max,
                   static_cast<double>(built.touched_tuples) / tuples);
      bench::WallTimer update_timer;
      Result<ingest::ApplyReport> applied =
          server.ApplyDelta(live[i], built.delta);
      double ms = update_timer.Seconds() * 1e3;
      if (!applied.ok()) {
        std::cerr << "phase " << phase << " graph " << i << ": "
                  << applied.status() << "\n";
        return 1;
      }
      phase_update_ms += ms;
      update_ms_total += ms;
      update_ms_max = std::max(update_ms_max, ms);
      ++updates;
      dirty += applied.value().dirty_answers;
      clean += applied.value().clean_answers;
      stale += static_cast<int64_t>(applied.value().stale_keys);
      invalidated += static_cast<int64_t>(applied.value().invalidated_entries);
    }
    dirty_total += dirty;
    clean_total += clean;
    stale_total += stale;
    invalidated_total += invalidated;

    // Query phase: the preserved-hit-rate measurement. Every clean
    // answer should ride its surviving cache entry.
    serve::RequestStats pass_stats;
    bench::WallTimer query_timer;
    for (api::SessionId id : live) {
      api::Result<api::QueryResponse> r = server.QuerySession(id, k);
      if (!r.ok()) {
        std::cerr << r.status() << "\n";
        return 1;
      }
      pass_stats.Add(r.value().stats);
    }
    double query_s = query_timer.Seconds();
    preserved_total.Add(pass_stats);

    double mean_update_ms = phase_update_ms / static_cast<double>(live.size());
    std::vector<std::string> cells = {
        std::to_string(phase),
        FormatDouble(pass_stats.CacheHitRate(), 3),
        std::to_string(dirty),
        std::to_string(clean),
        std::to_string(stale),
        std::to_string(invalidated),
        FormatDouble(mean_update_ms, 3),
        FormatDouble(query_s, 3)};
    table.AddRow(cells);
    csv.AddRow(cells);
    report.AddRow({{"phase", phase},
                   {"preserved_hit_rate", pass_stats.CacheHitRate()},
                   {"dirty", dirty},
                   {"clean", clean},
                   {"stale_keys", stale},
                   {"invalidated", invalidated},
                   {"update_ms_mean", mean_update_ms},
                   {"query_s", query_s}});
  }
  table.Print(std::cout);

  // Bit-identity: the final live rankings against from-scratch rebuilds
  // of the updated graphs — a cache-off single-thread reference and a
  // cache-on 4-thread reference (the "any thread count, cache on or
  // off" acceptance clause).
  bool deterministic = true;
  api::ServerOptions cold_options;
  cold_options.ranking.enable_cache = false;
  cold_options.ranking.num_threads = 1;
  api::Server cold(cold_options);
  api::ServerOptions warm_options;
  warm_options.ranking.num_threads = 4;
  api::Server warm(warm_options);
  for (api::SessionId id : live) {
    api::Result<QueryGraph> updated = server.SessionSnapshot(id);
    api::Result<api::QueryResponse> incremental = server.QuerySession(id, k);
    if (!updated.ok() || !incremental.ok()) {
      std::cerr << "session readback failed\n";
      return 1;
    }
    api::Result<api::QueryResponse> cold_rebuild =
        cold.RankGraph(updated.value(), k);
    api::Result<api::QueryResponse> warm_rebuild =
        warm.RankGraph(updated.value(), k);
    if (!cold_rebuild.ok() || !warm_rebuild.ok()) {
      std::cerr << "rebuild reference failed\n";
      return 1;
    }
    if (api::RankingFingerprint(incremental.value()) != api::RankingFingerprint(cold_rebuild.value()) ||
        api::RankingFingerprint(incremental.value()) != api::RankingFingerprint(warm_rebuild.value())) {
      deterministic = false;
    }
  }

  double wall_s = total_timer.Seconds();
  double preserved_hit_rate = preserved_total.CacheHitRate();
  double update_ms_mean =
      updates == 0 ? 0.0 : update_ms_total / static_cast<double>(updates);
  const obs::Snapshot metrics = server.MetricsSnapshot();
  const auto cache_entries = static_cast<int64_t>(
      bench::GaugeValue(metrics, "biorank_serve_cache_entries"));

  std::cout << "\nAggregate: preserved hit rate "
            << FormatDouble(preserved_hit_rate, 3) << " over " << phases
            << " post-update passes, " << updates << " deltas (mean "
            << FormatDouble(update_ms_mean, 3) << " ms, max "
            << FormatDouble(update_ms_max, 3) << " ms), "
            << invalidated_total << " cache entries invalidated ("
            << cache_entries << " live).\n"
            << "Max touched-tuple fraction "
            << FormatDouble(touched_fraction_max, 4) << " (workload cap 0.10).\n"
            << "Output " << (deterministic ? "bit-identical" : "DIVERGED")
            << " vs from-scratch rebuilds (cache off/1 thread and cache "
               "on/4 threads).\n";
  bench::MaybeWriteCsv(csv, "ingest_updates");

  report.SetWallTime(wall_s);
  report.SetMetric("k", k);
  report.SetMetric("phases", phases);
  report.SetMetric("graphs", static_cast<int64_t>(live.size()));
  report.SetMetric("updates", updates);
  report.SetMetric("preserved_hit_rate", preserved_hit_rate);
  report.SetMetric("touched_fraction_max", touched_fraction_max);
  report.SetMetric("update_latency_ms_mean", update_ms_mean);
  report.SetMetric("update_latency_ms_max", update_ms_max);
  report.SetMetric("dirty_answers", dirty_total);
  report.SetMetric("clean_answers", clean_total);
  report.SetMetric("stale_keys", stale_total);
  report.SetMetric("invalidated_entries", invalidated_total);
  report.SetMetric("cache_entries", cache_entries);
  report.SetMetric("cache_invalidations",
                   static_cast<int64_t>(bench::CounterValue(
                       metrics, "biorank_serve_cache_invalidations_total")));
  report.SetMetric("deterministic_output", deterministic);
  Status write_status = report.Write();

  bool workload_ok = touched_fraction_max <= 0.10;
  bool pass_gate = preserved_hit_rate > 0.5;
  if (!workload_ok) {
    std::cerr << "ingest workload FAILED: deltas touched more than 10% of "
                 "tuples\n";
  }
  if (!pass_gate) {
    std::cerr << "ingest gate FAILED: need preserved_hit_rate > 0.5\n";
  }
  return deterministic && pass_gate && workload_ok && write_status.ok() ? 0
                                                                        : 1;
}
