// End-to-end durability: kill a server (destroy it), boot a fresh one
// over the same storage directory, and require the recovered rankings to
// be *bit-identical* to the never-killed server's — the acceptance bar
// the whole storage/ layer exists to clear. Plus the recovery edge
// cases: cold boots, stale snapshots with long WAL replays, corrupt
// snapshot fallback, torn WAL tails, and the ApplyDelta-while-Checkpoint
// hammer (this suite runs under the `concurrency` ctest label).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/server.h"
#include "core/csr_snapshot.h"
#include "ingest/update_applier.h"
#include "serve/ranking_service.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "testing/metrics.h"
#include "testing/random_graphs.h"
#include "util/crc32c.h"
#include "util/file.h"
#include "util/rng.h"

namespace biorank::api {
namespace {

/// A fresh per-test storage directory (leftovers from a previous run are
/// scrubbed so replays never cross test boundaries).
std::string FreshDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  for (const auto& [lsn, path] : storage::ListSnapshots(dir)) {
    (void)lsn;
    std::remove(path.c_str());
  }
  std::remove(storage::WalPath(dir).c_str());
  ::rmdir(dir.c_str());
  return dir;
}

ServerOptions DurableOptions(const std::string& dir) {
  ServerOptions options;
  options.storage_dir = dir;
  return options;
}

std::string WellStudiedSymbol(const Server& server, int index) {
  const ProteinUniverse& universe = server.universe();
  return universe.protein(universe.well_studied()[static_cast<size_t>(index)])
      .gene_symbol;
}

ingest::EvidenceDelta PriorDelta(double ratio) {
  ingest::EvidenceDelta delta;
  delta.revise_source_priors.push_back({"AmiGO", ratio});
  return delta;
}

std::vector<std::pair<NodeId, double>> SessionFingerprint(Server& server,
                                                          SessionId id) {
  Result<QueryResponse> response = server.QuerySession(id, 0);
  EXPECT_TRUE(response.ok()) << response.status();
  if (!response.ok()) return {};
  return RankingFingerprint(response.value());
}

TEST(StorageRecoveryTest, ColdBootOnEmptyDirectoryServesDurably) {
  std::string dir = FreshDir("recovery_cold");
  Server server(DurableOptions(dir));
  ASSERT_TRUE(server.storage_status().ok()) << server.storage_status();
  EXPECT_TRUE(server.durable());
  EXPECT_FALSE(server.recovery_report().snapshot_loaded);
  EXPECT_EQ(server.recovery_report().replayed_records, 0u);
  EXPECT_EQ(server.recovery_report().sessions_recovered, 0u);

  Result<SessionInfo> info = server.OpenSession(
      MakeProteinFunctionRequest(WellStudiedSymbol(server, 0)));
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(server.ApplyDelta(info.value().id, PriorDelta(0.9)).ok());
  Result<CheckpointReport> checkpoint = server.Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint.value().sessions, 1u);
  EXPECT_GT(checkpoint.value().bytes, 0u);
  EXPECT_GT(checkpoint.value().wal_lsn, 0u);
  EXPECT_EQ(testing::CounterValue(server.MetricsSnapshot(),
                                  "biorank_storage_checkpoints_total"),
            1u);
}

TEST(StorageRecoveryTest, MemoryOnlyServerRefusesCheckpoint) {
  Server server;
  EXPECT_FALSE(server.durable());
  EXPECT_TRUE(server.storage_status().ok());
  EXPECT_EQ(server.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(StorageRecoveryTest, WarmBootIsBitIdenticalToNeverKilledServer) {
  std::string dir = FreshDir("recovery_warm");
  SessionId first = 0;
  SessionId second = 0;
  std::vector<std::pair<NodeId, double>> fp_first;
  std::vector<std::pair<NodeId, double>> fp_second;
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok()) << server.storage_status();
    Result<SessionInfo> a = server.OpenSession(
        MakeProteinFunctionRequest(WellStudiedSymbol(server, 0)));
    Result<SessionInfo> b = server.OpenSession(
        MakeProteinFunctionRequest(WellStudiedSymbol(server, 1)));
    ASSERT_TRUE(a.ok() && b.ok());
    first = a.value().id;
    second = b.value().id;
    ASSERT_TRUE(server.ApplyDelta(first, PriorDelta(0.9)).ok());
    ASSERT_TRUE(server.Checkpoint().ok());
    // Post-checkpoint history rides the WAL alone.
    ASSERT_TRUE(server.ApplyDelta(first, PriorDelta(0.95)).ok());
    ASSERT_TRUE(server.ApplyDelta(second, PriorDelta(0.85)).ok());
    fp_first = SessionFingerprint(server, first);
    fp_second = SessionFingerprint(server, second);
    ASSERT_FALSE(fp_first.empty());
    ASSERT_FALSE(fp_second.empty());
  }  // "Kill": destructor syncs the WAL; state lives only on disk now.

  Server recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.storage_status().ok()) << recovered.storage_status();
  const storage::RecoveryReport& report = recovered.recovery_report();
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.sessions_recovered, 2u);
  EXPECT_GE(report.replayed_records, 2u);  // The two post-checkpoint deltas.
  EXPECT_GT(report.skipped_records, 0u);   // The pre-checkpoint history.
  EXPECT_EQ(recovered.session_count(), 2u);

  // Same handles, bit-identical rankings.
  EXPECT_EQ(SessionFingerprint(recovered, first), fp_first);
  EXPECT_EQ(SessionFingerprint(recovered, second), fp_second);

  // The restored cache keeps serving: a second identical query is all
  // hits, and a *new* one-shot query for the same symbol reuses the
  // resolved entries where subgraphs agree.
  Result<QueryResponse> again = recovered.QuerySession(first, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().stats.cache_misses, 0);

  // New sessions never collide with recovered handles.
  Result<SessionInfo> fresh = recovered.OpenSession(
      MakeProteinFunctionRequest(WellStudiedSymbol(recovered, 2)));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh.value().id, second);
}

TEST(StorageRecoveryTest, StaleSnapshotReplaysLongWalTail) {
  std::string dir = FreshDir("recovery_stale");
  SessionId id = 0;
  std::vector<std::pair<NodeId, double>> expected;
  constexpr int kPostCheckpointDeltas = 6;
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok());
    Result<SessionInfo> info = server.OpenSession(
        MakeProteinFunctionRequest(WellStudiedSymbol(server, 0)));
    ASSERT_TRUE(info.ok());
    id = info.value().id;
    ASSERT_TRUE(server.Checkpoint().ok());  // Snapshot before any delta.
    for (int i = 0; i < kPostCheckpointDeltas; ++i) {
      ASSERT_TRUE(server.ApplyDelta(id, PriorDelta(0.99 - 0.01 * i)).ok());
    }
    expected = SessionFingerprint(server, id);
  }
  Server recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.storage_status().ok()) << recovered.storage_status();
  EXPECT_TRUE(recovered.recovery_report().snapshot_loaded);
  EXPECT_GE(recovered.recovery_report().replayed_records,
            static_cast<uint64_t>(kPostCheckpointDeltas));
  EXPECT_EQ(SessionFingerprint(recovered, id), expected);
}

TEST(StorageRecoveryTest, CorruptSnapshotFallsBackToOlderOne) {
  std::string dir = FreshDir("recovery_fallback");
  SessionId id = 0;
  std::vector<std::pair<NodeId, double>> expected;
  uint64_t first_checkpoint_lsn = 0;
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok());
    Result<SessionInfo> info = server.OpenSession(
        MakeProteinFunctionRequest(WellStudiedSymbol(server, 0)));
    ASSERT_TRUE(info.ok());
    id = info.value().id;
    Result<CheckpointReport> one = server.Checkpoint();
    ASSERT_TRUE(one.ok());
    first_checkpoint_lsn = one.value().wal_lsn;
    ASSERT_TRUE(server.ApplyDelta(id, PriorDelta(0.9)).ok());
    ASSERT_TRUE(server.Checkpoint().ok());
    expected = SessionFingerprint(server, id);
  }
  // Corrupt the newest snapshot (payload bit flip: checksum now fails).
  auto snapshots = storage::ListSnapshots(dir);
  ASSERT_EQ(snapshots.size(), 2u);
  {
    Result<std::string> bytes = util::ReadFileToString(snapshots[0].second);
    ASSERT_TRUE(bytes.ok());
    std::string corrupted = bytes.value();
    corrupted[corrupted.size() / 2] ^= 0x10;
    std::ofstream out(snapshots[0].second, std::ios::binary | std::ios::trunc);
    out.write(corrupted.data(),
              static_cast<std::streamsize>(corrupted.size()));
  }
  Server recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.storage_status().ok()) << recovered.storage_status();
  const storage::RecoveryReport& report = recovered.recovery_report();
  EXPECT_EQ(report.corrupt_snapshots_skipped, 1);
  EXPECT_EQ(report.snapshot_lsn, first_checkpoint_lsn);
  // The WAL is never truncated, so the older snapshot plus a longer
  // replay reconstructs the same state bit for bit.
  EXPECT_EQ(SessionFingerprint(recovered, id), expected);
}

TEST(StorageRecoveryTest, TornWalTailRecoversToLastCompleteRecord) {
  std::string dir = FreshDir("recovery_torn");
  SessionId id = 0;
  std::vector<std::pair<NodeId, double>> expected;
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok());
    Result<SessionInfo> info = server.OpenSession(
        MakeProteinFunctionRequest(WellStudiedSymbol(server, 0)));
    ASSERT_TRUE(info.ok());
    id = info.value().id;
    ASSERT_TRUE(server.ApplyDelta(id, PriorDelta(0.9)).ok());
    expected = SessionFingerprint(server, id);
  }
  {  // A crash mid-append: garbage after the last complete record.
    std::ofstream out(storage::WalPath(dir),
                      std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x13, 0x37};
    out.write(torn, sizeof(torn));
  }
  Server recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.storage_status().ok()) << recovered.storage_status();
  EXPECT_TRUE(recovered.recovery_report().wal_torn_tail);
  EXPECT_GT(recovered.recovery_report().wal_truncated_bytes, 0u);
  EXPECT_EQ(recovered.session_count(), 1u);
  EXPECT_EQ(SessionFingerprint(recovered, id), expected);
}

TEST(StorageRecoveryTest, FingerprintMismatchFallsBackToMemoryOnly) {
  std::string dir = FreshDir("recovery_fp");
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok());
  }
  ServerOptions other = DurableOptions(dir);
  other.universe.seed = 424242;  // A different world entirely.
  Server mismatched(other);
  EXPECT_EQ(mismatched.storage_status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(mismatched.durable());
  // The server still serves — memory-only.
  Result<QueryResponse> response = mismatched.Query(
      MakeProteinFunctionRequest(WellStudiedSymbol(mismatched, 0), 3));
  EXPECT_TRUE(response.ok()) << response.status();
}

/// The fingerprint in the header of `dir`'s WAL; 0 when the file does not
/// start with a readable header.
uint64_t WalHeaderFingerprint(const std::string& dir) {
  std::string header(16, '\0');
  std::ifstream wal(storage::WalPath(dir), std::ios::binary);
  if (!wal.read(header.data(), 16) || header.compare(0, 8, "BRWAL001") != 0) {
    return 0;
  }
  uint64_t fingerprint = 0;
  std::memcpy(&fingerprint, header.data() + 8, sizeof(fingerprint));
  return fingerprint;
}

TEST(StorageRecoveryTest, DefaultFingerprintIsUnchanged) {
  // Retiring settable ranking options into constants must hash the same
  // values in the same slots, so stores written by a default server keep
  // booting warm. (Moved from 0x42b9cb6f1c9ce567 when served values moved:
  // estimator version 3 and the exact_max_edges default of 128.)
  std::string dir = FreshDir("recovery_default_fp");
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok());
  }
  EXPECT_EQ(WalHeaderFingerprint(dir), 0x10e7780abcfa8e49ULL);
}

TEST(StorageRecoveryTest, StoreFromTheTraversalServingEstimatorIsRefused) {
  // The default-options fingerprint of servers that served Monte Carlo
  // with the traversal kernel (estimator version 1). Their stores hold
  // MC values the 64-lane kernel would not reproduce, so a default server
  // must stamp a different fingerprint and refuse such a store.
  constexpr uint64_t kTraversalServingFingerprint = 0xeccbcfd71b44b939ULL;
  std::string dir = FreshDir("recovery_mc_version");
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok());
  }
  uint64_t fingerprint = WalHeaderFingerprint(dir);
  ASSERT_NE(fingerprint, 0u);
  EXPECT_NE(fingerprint, kTraversalServingFingerprint);

  ASSERT_TRUE(util::AtomicFileWrite(
                  storage::WalPath(dir),
                  storage::WalFileHeader(kTraversalServingFingerprint))
                  .ok());
  Server booted(DurableOptions(dir));
  EXPECT_EQ(booted.storage_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(booted.durable());
}

TEST(StorageRecoveryTest, StoreFromTheMcServingEstimatorIsRefused) {
  // The default-options fingerprint of servers that served every residue
  // past 24 edges by Monte Carlo (estimator version 2). The DAG sweep
  // serves most of those exactly now, so a default server must stamp a
  // different fingerprint and refuse such a store.
  constexpr uint64_t kMcServingFingerprint = 0x42b9cb6f1c9ce567ULL;
  std::string dir = FreshDir("recovery_sweep_version");
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok());
  }
  uint64_t fingerprint = WalHeaderFingerprint(dir);
  ASSERT_NE(fingerprint, 0u);
  EXPECT_NE(fingerprint, kMcServingFingerprint);

  ASSERT_TRUE(util::AtomicFileWrite(
                  storage::WalPath(dir),
                  storage::WalFileHeader(kMcServingFingerprint))
                  .ok());
  Server booted(DurableOptions(dir));
  EXPECT_EQ(booted.storage_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(booted.durable());
}

/// A checkpoint state (fingerprint 99) holding one session over `graph`
/// with its CSR snapshot.
storage::SnapshotState OneSessionState(const QueryGraph& graph) {
  storage::SnapshotState state;
  state.fingerprint = 99;
  state.wal_lsn = 7;
  state.next_session_id = 3;
  storage::SnapshotSession session;
  session.id = 2;
  session.applied_lsn = 7;
  session.matched_proteins = 1;
  session.answer_labels[graph.answers[0]] = "label-a";
  session.go_node[11] = graph.answers[0];
  session.graph = graph;
  session.csr = BuildCsrSnapshot(graph.graph);
  state.sessions.push_back(std::move(session));
  return state;
}

TEST(StorageRecoveryTest, SnapshotCodecRoundTripsCsrByteIdentically) {
  // Pure codec check, no server: a graph with tombstones (removed node +
  // edge) must round-trip id-for-id, so the CSR the load rebuilds from it
  // is byte-equal to the one the session served before the checkpoint.
  Rng rng(20260809);
  testing::RandomDagOptions options;
  options.layers = 3;
  options.nodes_per_layer = 5;
  options.answers = 4;
  QueryGraph graph = testing::MakeRandomLayeredDag(rng, options);
  // Tombstone an answer-layer node and one edge so capacities != counts.
  NodeId victim = graph.answers.back();
  graph.answers.pop_back();
  ASSERT_TRUE(graph.graph.RemoveNode(victim).ok());
  ASSERT_TRUE(graph.graph.RemoveEdge(0).ok());
  ASSERT_TRUE(graph.Validate().ok());

  storage::SnapshotState state = OneSessionState(graph);
  std::string bytes = storage::EncodeSnapshot(state);
  Result<storage::SnapshotState> decoded = storage::DecodeSnapshot(bytes, 99);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded.value().sessions.size(), 1u);
  const storage::SnapshotSession& back = decoded.value().sessions[0];
  EXPECT_TRUE(CsrBytesEqual(BuildCsrSnapshot(back.graph.graph),
                            state.sessions[0].csr));
  // The recovered session's applier serves the snapshot of the decoded
  // graph, byte-equal to the one served before the checkpoint.
  serve::RankingService service;
  ingest::UpdateApplier applier(back.graph, &service, back.applied_lsn);
  EXPECT_TRUE(CsrBytesEqual(applier.csr_snapshot(),
                            BuildCsrSnapshot(back.graph.graph)));
  EXPECT_TRUE(CsrBytesEqual(applier.csr_snapshot(), state.sessions[0].csr));
  EXPECT_EQ(applier.last_wal_lsn(), 7u);
  EXPECT_EQ(back.answer_labels, state.sessions[0].answer_labels);
  EXPECT_EQ(back.go_node, state.sessions[0].go_node);

  // A flipped payload bit is typed data loss; a wrong fingerprint is a
  // configuration error, not corruption.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x04;
  EXPECT_EQ(storage::DecodeSnapshot(flipped, 99).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(storage::DecodeSnapshot(bytes, 100).status().code(),
            StatusCode::kFailedPrecondition);

  // A well-formed image of an older format version is typed data loss
  // too, so recovery skips it and replays the WAL instead.
  std::string older = bytes.substr(0, bytes.size() - sizeof(uint32_t));
  const uint32_t version = 1;
  std::memcpy(&older[8], &version, sizeof(version));
  const uint32_t crc = util::Crc32c(older.data(), older.size());
  older.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  EXPECT_EQ(storage::DecodeSnapshot(older, 99).status().code(),
            StatusCode::kDataLoss);
}

TEST(StorageRecoveryTest, LoadedCsrIsRebuiltFromItsGraph) {
  // The recovered session's flat view must be the snapshot of the loaded
  // graph. A session whose in-memory CSR disagrees with its graph (one
  // edge probability changed) encodes to the same bytes as a consistent
  // one, and its recovered applier serves the consistent CSR.
  Rng rng(20260810);
  testing::RandomDagOptions options;
  options.layers = 3;
  options.nodes_per_layer = 5;
  options.answers = 4;
  storage::SnapshotState state =
      OneSessionState(testing::MakeRandomLayeredDag(rng, options));
  const std::string consistent = storage::EncodeSnapshot(state);
  std::vector<double>& out_q = state.sessions[0].csr.out_q;
  ASSERT_FALSE(out_q.empty());
  out_q[0] = out_q[0] == 0.5 ? 0.25 : 0.5;
  const std::string bytes = storage::EncodeSnapshot(state);
  EXPECT_TRUE(bytes == consistent) << "encoding must ignore the CSR";
  Result<storage::SnapshotState> decoded = storage::DecodeSnapshot(bytes, 99);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const storage::SnapshotSession& back = decoded.value().sessions[0];
  serve::RankingService service;
  ingest::UpdateApplier applier(back.graph, &service, back.applied_lsn);
  EXPECT_TRUE(CsrBytesEqual(applier.csr_snapshot(),
                            BuildCsrSnapshot(back.graph.graph)));
  EXPECT_FALSE(CsrBytesEqual(applier.csr_snapshot(), state.sessions[0].csr));
}

TEST(StorageRecoveryTest, CheckpointUnderConcurrentDeltasRecoversCleanly) {
  std::string dir = FreshDir("recovery_hammer");
  SessionId id = 0;
  std::vector<std::pair<NodeId, double>> expected;
  {
    Server server(DurableOptions(dir));
    ASSERT_TRUE(server.storage_status().ok());
    Result<SessionInfo> info = server.OpenSession(
        MakeProteinFunctionRequest(WellStudiedSymbol(server, 0)));
    ASSERT_TRUE(info.ok());
    id = info.value().id;

    // One writer hammers deltas, one thread checkpoints mid-stream, one
    // reader queries throughout — none may deadlock, error, or block the
    // readers for the duration of a snapshot write.
    constexpr int kDeltas = 8;
    std::thread writer([&server, id] {
      for (int i = 0; i < kDeltas; ++i) {
        Result<ingest::ApplyReport> applied =
            server.ApplyDelta(id, PriorDelta(0.97));
        ASSERT_TRUE(applied.ok()) << applied.status();
      }
    });
    std::thread checkpointer([&server] {
      for (int i = 0; i < 3; ++i) {
        Result<CheckpointReport> checkpoint = server.Checkpoint();
        ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
      }
    });
    std::thread reader([&server, id] {
      for (int i = 0; i < 4; ++i) {
        Result<QueryResponse> response = server.QuerySession(id, 5);
        ASSERT_TRUE(response.ok()) << response.status();
      }
    });
    writer.join();
    checkpointer.join();
    reader.join();
    expected = SessionFingerprint(server, id);
  }
  Server recovered(DurableOptions(dir));
  ASSERT_TRUE(recovered.storage_status().ok()) << recovered.storage_status();
  EXPECT_EQ(SessionFingerprint(recovered, id), expected);
}

}  // namespace
}  // namespace biorank::api
