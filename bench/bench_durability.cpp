// Durability end to end at bench scale: a storage-backed api::Server
// runs the Table-1 mixed workload (batches + live-session deltas +
// session queries), checkpoints mid-run so later phases accumulate a
// WAL tail past the snapshot, then is destroyed ("kill") and re-booted
// from disk. Gates the two recovery contracts:
//
//  * recovery_identical — every recovered session answers its query
//    bit-for-bit identically to the pre-kill server (same handles, no
//    re-opening);
//  * hit_rate_preserved — a full post-recovery query pass keeps the
//    shared reliability cache warm: its hit rate lands within 0.05 of
//    the identical pre-kill pass (snapshot-restored entries plus
//    replay-recomputed ones, nothing silently cold).
//
// Plus the storage-plane throughput numbers: a standalone WAL
// append-path microbench (group fsync on, bench-floor gated),
// checkpoint write throughput, and warm-boot recovery time.
//
// BENCH_durability.json metrics: recovery_identical, hit_rate_preserved,
// mixed_hit_rate before/after, wal_appends_per_sec (floor gate),
// recovery_seconds, checkpoint/replay counters. The storage directory
// is left behind under BIORANK_BENCH_JSON_DIR (when set) so CI can
// upload the snapshot + WAL as artifacts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "bench_json.h"
#include "bench_util.h"
#include "core/query_graph.h"
#include "obs/metrics.h"
#include "storage/codec.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

namespace {

/// One update phase's delta for a live session — same shape as the
/// api_server bench: reweights ~2% of evidence edges and revises ~1% of
/// tuple probabilities, deterministic in (session index, phase).
ingest::EvidenceDelta BuildDelta(const QueryGraph& graph,
                                 uint64_t session_index, uint64_t phase) {
  Rng rng = Rng::ForStream(20260809, session_index * 1000 + phase);
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

/// Scrubs a previous run's snapshot/WAL so replays never cross runs.
void ScrubStorageDir(const std::string& dir) {
  for (const auto& [lsn, path] : storage::ListSnapshots(dir)) {
    (void)lsn;
    std::remove(path.c_str());
  }
  std::remove(storage::WalPath(dir).c_str());
}

/// One full query pass over every live session, accumulating cache
/// stats; returns false (after printing the error) on any failure.
bool QueryPass(api::Server& server, const std::vector<api::SessionId>& ids,
               int k, serve::RequestStats* stats,
               std::vector<std::vector<std::pair<NodeId, double>>>* rankings) {
  for (api::SessionId id : ids) {
    api::Result<api::QueryResponse> response = server.QuerySession(id, k);
    if (!response.ok()) {
      std::cerr << response.status() << "\n";
      return false;
    }
    if (stats != nullptr) stats->Add(response.value().stats);
    if (rankings != nullptr) {
      rankings->push_back(api::RankingFingerprint(response.value()));
    }
  }
  return true;
}

}  // namespace

int main() {
  const int k = 10;
  const int phases = std::max(2, bench::Repetitions(3));
  // The storage directory lands next to the JSON reports (or in the
  // working directory without the env), so CI's artifact upload carries
  // the snapshot + WAL alongside BENCH_durability.json.
  const char* json_dir = std::getenv("BIORANK_BENCH_JSON_DIR");
  const std::string store =
      (json_dir != nullptr ? std::string(json_dir) + "/" : std::string()) +
      "biorank_durability_store";
  ScrubStorageDir(store);

  std::cout << "=== Durability: mixed workload -> checkpoint -> kill -> "
               "warm boot over "
            << store << " (" << phases << " phases, top-" << k << ") ===\n\n";

  bench::JsonReport report("durability");
  bench::WallTimer total_timer;

  // ---- The storage-backed server and its live sessions. ----
  api::ServerOptions options;
  options.storage_dir = store;
  auto server = std::make_unique<api::Server>(options);
  if (!server->storage_status().ok()) {
    std::cerr << "storage boot failed: " << server->storage_status() << "\n";
    return 1;
  }
  std::vector<api::QueryRequest> requests;
  for (const ScenarioCase& spec : BuildScenarioCases(
           server->universe(), ScenarioId::kScenario1WellKnown)) {
    requests.push_back(api::MakeProteinFunctionRequest(spec.gene_symbol, k));
  }
  std::vector<api::SessionId> sessions;
  for (const api::QueryRequest& request : requests) {
    api::QueryRequest open = request;
    open.options.top_k = 0;
    api::Result<api::SessionInfo> session = server->OpenSession(open);
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }
    sessions.push_back(session.value().id);
  }

  // ---- Phase loop: batch + deltas + session queries, all logged. ----
  serve::RequestStats mixed;
  double update_ms_total = 0.0;
  int updates = 0;
  api::CheckpointReport checkpoint;
  TextTable table({"phase", "batch s", "update ms", "query s", "hit rate"});
  for (int phase = 0; phase < phases; ++phase) {
    bench::WallTimer batch_timer;
    api::Result<std::vector<api::QueryResponse>> batch =
        server->RunBatch(requests);
    double batch_s = batch_timer.Seconds();
    if (!batch.ok()) {
      std::cerr << batch.status() << "\n";
      return 1;
    }
    for (const api::QueryResponse& response : batch.value()) {
      mixed.Add(response.stats);
    }

    double phase_update_ms = 0.0;
    for (size_t i = 0; i < sessions.size(); ++i) {
      api::Result<QueryGraph> snapshot = server->SessionSnapshot(sessions[i]);
      if (!snapshot.ok()) {
        std::cerr << snapshot.status() << "\n";
        return 1;
      }
      ingest::EvidenceDelta delta =
          BuildDelta(snapshot.value(), i, static_cast<uint64_t>(phase));
      bench::WallTimer update_timer;
      api::Result<ingest::ApplyReport> applied =
          server->ApplyDelta(sessions[i], delta);
      phase_update_ms += update_timer.Seconds() * 1e3;
      if (!applied.ok()) {
        std::cerr << applied.status() << "\n";
        return 1;
      }
      ++updates;
    }
    update_ms_total += phase_update_ms;

    bench::WallTimer query_timer;
    serve::RequestStats phase_stats;
    if (!QueryPass(*server, sessions, k, &phase_stats, nullptr)) return 1;
    double query_s = query_timer.Seconds();
    mixed.Add(phase_stats);
    table.AddRow({std::to_string(phase), FormatDouble(batch_s, 3),
                  FormatDouble(phase_update_ms / sessions.size(), 3),
                  FormatDouble(query_s, 3),
                  FormatDouble(phase_stats.CacheHitRate(), 3)});

    // Mid-run checkpoint after the first phase: the final checkpoint
    // below supersedes it, leaving an older snapshot on disk the loader
    // must rank past — the retention path, not just the happy path.
    if (phase == 0) {
      api::Result<api::CheckpointReport> written = server->Checkpoint();
      if (!written.ok()) {
        std::cerr << written.status() << "\n";
        return 1;
      }
    }
  }
  table.Print(std::cout);

  // ---- Final checkpoint, then one more delta round *past* it. The
  // snapshot captures the cache fully warm (every phase ended with a
  // query pass); the extra deltas land beyond its covering LSN, so the
  // warm boot must replay a real WAL tail. Both the pre-kill reference
  // pass and the post-recovery pass then start from the same logical
  // state — checkpoint plus (re)applied deltas — which makes their hit
  // rates directly comparable.
  {
    api::Result<api::CheckpointReport> written = server->Checkpoint();
    if (!written.ok()) {
      std::cerr << written.status() << "\n";
      return 1;
    }
    checkpoint = written.value();
  }
  for (size_t i = 0; i < sessions.size(); ++i) {
    api::Result<QueryGraph> snapshot = server->SessionSnapshot(sessions[i]);
    if (!snapshot.ok()) {
      std::cerr << snapshot.status() << "\n";
      return 1;
    }
    ingest::EvidenceDelta delta =
        BuildDelta(snapshot.value(), i, static_cast<uint64_t>(phases));
    api::Result<ingest::ApplyReport> applied =
        server->ApplyDelta(sessions[i], delta);
    if (!applied.ok()) {
      std::cerr << applied.status() << "\n";
      return 1;
    }
    ++updates;
  }

  // ---- Pre-kill reference: the query pass recovery must reproduce,
  // and the hit rate the recovered server must match. ----
  serve::RequestStats before_stats;
  std::vector<std::vector<std::pair<NodeId, double>>> expected;
  if (!QueryPass(*server, sessions, k, &before_stats, &expected)) return 1;
  const double hit_rate_before = before_stats.CacheHitRate();
  const obs::Snapshot pre_kill = server->MetricsSnapshot();

  // A representative WAL payload (one encoded session delta) for the
  // append-path microbench below, captured while the server is alive.
  std::string wal_payload;
  {
    api::Result<QueryGraph> snapshot = server->SessionSnapshot(sessions[0]);
    if (!snapshot.ok()) {
      std::cerr << snapshot.status() << "\n";
      return 1;
    }
    storage::ByteWriter body;
    storage::EncodeDelta(BuildDelta(snapshot.value(), 0, 0), body);
    wal_payload = body.bytes();
  }

  // ---- Kill and warm-boot. The destructor syncs the WAL, matching a
  // clean shutdown; torn-tail handling is covered by storage_wal_test.
  server.reset();
  bench::WallTimer boot_timer;
  api::Server recovered(options);
  const double boot_s = boot_timer.Seconds();
  if (!recovered.storage_status().ok()) {
    std::cerr << "warm boot failed: " << recovered.storage_status() << "\n";
    return 1;
  }
  const storage::RecoveryReport& recovery = recovered.recovery_report();

  // Same handles, same rankings, bit for bit.
  serve::RequestStats after_stats;
  std::vector<std::vector<std::pair<NodeId, double>>> actual;
  if (!QueryPass(recovered, sessions, k, &after_stats, &actual)) return 1;
  const bool recovery_identical = actual == expected;
  const double hit_rate_after = after_stats.CacheHitRate();
  const bool hit_rate_preserved =
      std::abs(hit_rate_after - hit_rate_before) <= 0.05;

  // ---- WAL append-path microbench: the raw group-fsync append rate on
  // a representative encoded-delta body, fsync on (the serving config).
  double wal_appends_per_sec = 0.0;
  double wal_mb_per_sec = 0.0;
  {
    const std::string path = store + "/bench_append.wal";
    std::remove(path.c_str());
    Result<storage::Wal::OpenResult> opened =
        storage::Wal::Open(path, 0xB10BE7C4);
    if (!opened.ok()) {
      std::cerr << opened.status() << "\n";
      return 1;
    }
    const int appends = 2000;
    bench::WallTimer append_timer;
    for (int i = 0; i < appends; ++i) {
      if (!opened.value()
               .wal->Append(storage::WalRecordType::kApplyDelta, 1,
                            wal_payload)
               .ok()) {
        std::cerr << "wal append failed\n";
        return 1;
      }
    }
    if (!opened.value().wal->Sync().ok()) {
      std::cerr << "wal sync failed\n";
      return 1;
    }
    double seconds = append_timer.Seconds();
    storage::WalStats wal_stats = opened.value().wal->stats();
    wal_appends_per_sec = appends / seconds;
    wal_mb_per_sec = static_cast<double>(wal_stats.bytes) / seconds / 1e6;
    opened.value().wal.reset();
    std::remove(path.c_str());
  }

  const double checkpoint_mb_s =
      checkpoint.seconds > 0.0
          ? static_cast<double>(checkpoint.bytes) / checkpoint.seconds / 1e6
          : 0.0;
  std::cout << "\nCheckpoint: " << checkpoint.bytes << " bytes @ LSN "
            << checkpoint.wal_lsn << " in "
            << FormatDouble(checkpoint.seconds, 4) << " s ("
            << FormatDouble(checkpoint_mb_s, 1) << " MB/s), "
            << checkpoint.sessions << " sessions, "
            << checkpoint.cache_entries << " cache entries.\n"
            << "Warm boot: " << FormatDouble(boot_s, 4) << " s ("
            << recovery.sessions_recovered << " sessions, "
            << recovery.replayed_records << " WAL records replayed, "
            << recovery.cache_entries_restored << " cache entries).\n"
            << "Recovered rankings "
            << (recovery_identical ? "bit-identical" : "DIVERGED")
            << "; hit rate " << FormatDouble(hit_rate_before, 3) << " -> "
            << FormatDouble(hit_rate_after, 3)
            << (hit_rate_preserved ? " (preserved)" : " (REGRESSED)") << ".\n"
            << "WAL append path: "
            << FormatDouble(wal_appends_per_sec, 0) << " appends/s ("
            << FormatDouble(wal_mb_per_sec, 1) << " MB/s, group fsync).\n";

  report.SetWallTime(total_timer.Seconds());
  report.SetMetric("k", k);
  report.SetMetric("phases", phases);
  report.SetMetric("sessions", static_cast<int64_t>(sessions.size()));
  report.SetMetric("deltas", static_cast<int64_t>(updates));
  report.SetMetric("update_ms_mean",
                   updates == 0 ? 0.0 : update_ms_total / updates);
  report.SetMetric("mixed_hit_rate", mixed.CacheHitRate());
  report.SetMetric("recovery_identical", recovery_identical);
  report.SetMetric("hit_rate_preserved", hit_rate_preserved);
  report.SetMetric("hit_rate_before_kill", hit_rate_before);
  report.SetMetric("hit_rate_after_recovery", hit_rate_after);
  report.SetMetric("checkpoint_bytes",
                   static_cast<int64_t>(checkpoint.bytes));
  report.SetMetric("checkpoint_seconds", checkpoint.seconds);
  report.SetMetric("checkpoint_mb_per_sec", checkpoint_mb_s);
  report.SetMetric("checkpoint_cache_entries",
                   static_cast<int64_t>(checkpoint.cache_entries));
  report.SetMetric("recovery_seconds", boot_s);
  report.SetMetric("replayed_records",
                   static_cast<int64_t>(recovery.replayed_records));
  report.SetMetric("skipped_records",
                   static_cast<int64_t>(recovery.skipped_records));
  report.SetMetric("cache_entries_restored",
                   static_cast<int64_t>(recovery.cache_entries_restored));
  report.SetMetric("wal_appends_per_sec", wal_appends_per_sec);
  report.SetMetric("wal_mb_per_sec", wal_mb_per_sec);
  report.SetMetric("wal_records",
                   static_cast<int64_t>(bench::CounterValue(
                       pre_kill, "biorank_storage_wal_records_total")));
  report.SetMetric("wal_syncs",
                   static_cast<int64_t>(bench::CounterValue(
                       pre_kill, "biorank_storage_wal_syncs_total")));
  report.Write();

  if (!recovery_identical || !hit_rate_preserved) return 1;
  return 0;
}
