// Quickstart: the api::Server front door in five minutes. Stand the
// whole BioRank stack up behind one object, ask for a protein's
// functions with a typed request, inspect the typed response (ranked
// answers with reliability values and bounds, per-phase timing, cache
// counters), fan a batch out, and keep a live session open across an
// evidence update.
//
// Run:  ./build/quickstart

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "api/server.h"
#include "obs/metrics.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

namespace {

const char* ResolutionName(serve::Resolution resolution) {
  switch (resolution) {
    case serve::Resolution::kCacheValue: return "cache";
    case serve::Resolution::kPruned: return "pruned";
    case serve::Resolution::kBoundExact: return "bounds";
    case serve::Resolution::kExact: return "exact";
    case serve::Resolution::kMonteCarlo: return "MC";
    case serve::Resolution::kRefining: return "refining";
  }
  return "?";
}

}  // namespace

int main() {
  std::cout << "== BioRank quickstart: the api::Server front door ==\n\n";

  // One server is one deployment: it owns the synthetic universe, the
  // eleven federated sources, the mediator, and the shared ranking
  // service (canonical reliability cache + thread pool).
  api::Server server;
  const ProteinUniverse& universe = server.universe();
  std::string symbol =
      universe.protein(universe.well_studied()[0]).gene_symbol;

  // 1. A one-shot typed request: the paper's running question, top 8.
  api::QueryRequest request = api::MakeProteinFunctionRequest(symbol, 8);
  api::Result<api::QueryResponse> response = server.Query(request);
  if (!response.ok()) {
    std::cerr << response.status() << "\n";
    return 1;
  }
  const api::QueryResponse& r = response.value();
  std::cout << "Query (EntrezProtein.name = \"" << symbol << "\", AmiGO): "
            << r.result.query_graph.graph.num_nodes() << " nodes, "
            << r.result.query_graph.graph.num_edges() << " edges, "
            << r.result.query_graph.answers.size()
            << " candidate functions.\n\n";
  TextTable table({"#", "GO term", "reliability", "[lower, upper]", "via"});
  for (size_t i = 0; i < r.top.size(); ++i) {
    const api::RankedAnswer& answer = r.top[i];
    table.AddRow({std::to_string(i + 1), answer.label,
                  FormatDouble(answer.reliability, 4),
                  "[" + FormatCompact(answer.lower, 4) + ", " +
                      FormatCompact(answer.upper, 4) + "]",
                  ResolutionName(answer.resolution)});
  }
  table.Print(std::cout);
  std::cout << "Timing: integrate " << FormatCompact(r.timing.integrate_s, 4)
            << " s, rank "
            << FormatCompact(r.timing.rank_s + r.timing.refine_s, 4)
            << " s; scheduler saw " << r.stats.candidates << " candidates ("
            << r.stats.cache_hits << " cache hits, " << r.stats.pruned
            << " pruned by bounds).\n\n";

  // 2. The same request again: the canonical reliability cache answers.
  api::Result<api::QueryResponse> again = server.Query(request);
  if (again.ok()) {
    std::cout << "Repeated request: " << again.value().stats.cache_misses
              << " cache misses (hit rate "
              << FormatDouble(again.value().stats.CacheHitRate(), 3)
              << "), bit-identical ranking.\n\n";
  }

  // 3. A batch: independent requests fanned across the shared pool,
  // output bit-identical to running them one by one.
  std::vector<api::QueryRequest> batch;
  for (int i = 1; i <= 3; ++i) {
    batch.push_back(api::MakeProteinFunctionRequest(
        universe.protein(universe.well_studied()[static_cast<size_t>(i)])
            .gene_symbol,
        3));
  }
  api::Result<std::vector<api::QueryResponse>> fanned = server.RunBatch(batch);
  if (fanned.ok()) {
    std::cout << "RunBatch over " << fanned.value().size()
              << " proteins; best function of each:\n";
    for (size_t i = 0; i < fanned.value().size(); ++i) {
      const api::QueryResponse& b = fanned.value()[i];
      std::cout << "  " << batch[i].query.value << " -> "
                << (b.top.empty() ? "(none)" : b.top[0].label) << " ("
                << FormatCompact(b.top.empty() ? 0.0 : b.top[0].reliability, 4)
                << ")\n";
    }
    std::cout << "\n";
  }

  // 4. A live session: the graph stays resident server-side, evidence
  // deltas apply incrementally, rankings stay bit-identical to a
  // from-scratch rebuild.
  api::Result<api::SessionInfo> session =
      server.OpenSession(api::MakeProteinFunctionRequest(symbol));
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  ingest::EvidenceDelta delta;
  delta.revise_source_priors.push_back({"AmiGO", 0.9});
  api::Result<ingest::ApplyReport> applied =
      server.ApplyDelta(session.value().id, delta);
  api::Result<api::QueryResponse> live =
      server.QuerySession(session.value().id, 3);
  if (applied.ok() && live.ok()) {
    std::cout << "Live session " << session.value().id
              << ": revised the AmiGO prior; delta dirtied "
              << applied.value().dirty_answers << " of "
              << session.value().answers << " answers ("
              << applied.value().invalidated_entries
              << " cache entries invalidated). New best function: "
              << live.value().top[0].label << ".\n";
  }
  server.CloseSession(session.value().id).ok();

  // 5. An anytime ranking: the deterministic bounds come back
  // immediately (zero MC spend), then Refine advances the open answers
  // until the ranking is final — bit-identical to what a blocking call
  // returns. Protein queries resolve entirely at the bounds pass (their
  // residues reduce to single paths), so the demo serves the canonical
  // irreducible residue — the Wheatstone bridge — through RankGraph on
  // a server with factoring disabled.
  QueryGraph bridge = MakeFig4bWheatstoneBridge();
  api::ServerOptions mc_options;
  mc_options.ranking.exact_max_edges = 0;  // Monte Carlo only.
  api::Server mc_server(mc_options);
  api::QueryOptions anytime_options;
  anytime_options.mode = api::QueryMode::kAnytime;
  api::Result<api::QueryResponse> first =
      mc_server.RankGraph(bridge, anytime_options);
  if (first.ok()) {
    const api::QueryResponse& a = first.value();
    std::cout << "\nAnytime ranking (Wheatstone bridge): "
              << a.completeness.resolved << " resolved / "
              << a.completeness.bounded << " bounded / "
              << a.completeness.refining
              << " still refining (widest bracket "
              << FormatCompact(a.completeness.widest_bracket, 4)
              << ") after the bounds-only pass.\n";
    api::RefinementHandle handle = a.refinement;
    int increments = 0;
    while (handle.valid()) {
      api::QueryOptions step;
      step.mc_trial_budget = 2048;  // whole 512-trial shards per survivor
      api::Result<api::QueryResponse> refined = mc_server.Refine(handle, step);
      if (!refined.ok()) break;
      ++increments;
      handle = refined.value().refinement;
      if (refined.value().completeness.complete) {
        std::cout << "Refined to a final ranking in " << increments
                  << " increments; best answer "
                  << refined.value().top[0].label << " ("
                  << FormatCompact(refined.value().top[0].reliability, 4)
                  << "), bit-identical to the blocking answer.\n";
      }
    }
  }

  // 6. The metrics snapshot: everything above was also recorded into
  // the server's registry — counters, gauges, and latency histograms
  // with Prometheus-style names (biorank_<layer>_<name>). MetricsText()
  // is the scrape endpoint's payload; the JSON form adds derived
  // p50/p99/p999 per histogram. Here: the end-to-end latency histogram
  // and a few counters and gauges, looked up by name in the snapshot.
  obs::Snapshot metrics = server.MetricsSnapshot();
  std::cout << "\nMetrics registry: " << metrics.MetricCount()
            << " metrics exported.\n";
  if (const obs::HistogramSnapshot* h =
          metrics.FindHistogram("biorank_api_query_seconds")) {
    std::cout << "  " << h->name << ": count " << h->count << ", p50 "
              << FormatCompact(h->Quantile(0.5) * 1e3, 3) << " ms, p99 "
              << FormatCompact(h->Quantile(0.99) * 1e3, 3) << " ms\n";
  }
  for (const char* name :
       {"biorank_api_queries_total", "biorank_api_batch_requests_total",
        "biorank_api_session_queries_total", "biorank_ingest_deltas_total",
        "biorank_serve_cache_hits_total", "biorank_serve_mc_trials_total"}) {
    if (const obs::CounterSnapshot* c = metrics.FindCounter(name)) {
      std::cout << "  " << c->name << " " << c->value << "\n";
    }
  }
  if (const obs::GaugeSnapshot* g =
          metrics.FindGauge("biorank_serve_cache_entries")) {
    std::cout << "  " << g->name << " " << g->value << "\n";
  }

  // 7. Durability: point a server at a directory and it logs every
  // session open/close and evidence delta to a write-ahead log before
  // applying it; Checkpoint() writes a versioned snapshot without
  // blocking readers. "Kill" the server (destroy it — a real kill -9
  // behaves the same, minus the un-fsynced WAL suffix) and the next
  // construction over the directory warm-boots: newest valid snapshot,
  // then the WAL tail, then the same session handle answers
  // bit-identically with a warm cache.
  std::string store = "/tmp/biorank_quickstart_store";
  for (const auto& [lsn, path] : storage::ListSnapshots(store)) {
    (void)lsn;
    std::remove(path.c_str());  // Scrub a previous run's state.
  }
  std::remove(storage::WalPath(store).c_str());
  api::ServerOptions durable_options;
  durable_options.storage_dir = store;
  api::SessionId persisted = 0;
  std::vector<api::RankedAnswer> before;
  {
    api::Server durable(durable_options);
    if (!durable.storage_status().ok()) {
      std::cerr << durable.storage_status() << "\n";
      return 1;
    }
    api::Result<api::SessionInfo> open =
        durable.OpenSession(api::MakeProteinFunctionRequest(symbol));
    if (!open.ok()) {
      std::cerr << open.status() << "\n";
      return 1;
    }
    persisted = open.value().id;
    // Resolve once before checkpointing so the snapshot carries real
    // cache entries, then let the delta ride the WAL alone.
    if (!durable.QuerySession(persisted, 3).ok()) return 1;
    if (!durable.Checkpoint().ok()) return 1;
    // Post-checkpoint history rides the WAL alone.
    ingest::EvidenceDelta revision;
    revision.revise_source_priors.push_back({"AmiGO", 0.95});
    if (!durable.ApplyDelta(persisted, revision).ok()) return 1;
    api::Result<api::QueryResponse> pre = durable.QuerySession(persisted, 3);
    if (!pre.ok()) return 1;
    before = pre.value().top;
  }  // Killed: state lives only in the snapshot + WAL now.

  api::Server rebooted(durable_options);
  const storage::RecoveryReport& recovery = rebooted.recovery_report();
  api::Result<api::QueryResponse> post = rebooted.QuerySession(persisted, 3);
  if (post.ok()) {
    bool identical = post.value().top.size() == before.size();
    for (size_t i = 0; identical && i < before.size(); ++i) {
      identical = post.value().top[i].node == before[i].node &&
                  post.value().top[i].reliability == before[i].reliability;
    }
    std::cout << "\nDurability (" << store << "): warm boot recovered "
              << recovery.sessions_recovered << " session in "
              << FormatCompact(recovery.seconds, 3) << " s ("
              << recovery.replayed_records << " WAL records replayed, "
              << recovery.cache_entries_restored
              << " cache entries restored); session " << persisted
              << " re-answered "
              << (identical ? "bit-identically" : "DIFFERENTLY — bug!")
              << ".\n";
  }
  return 0;
}
