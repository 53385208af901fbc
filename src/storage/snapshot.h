// Versioned checkpoint files: one file serializes the server's whole
// durable state — every live session's exact graph (tombstones and all),
// the resolved entries of the canonical reliability cache, and the
// covering WAL LSN the state is consistent with. Loading is a
// bounds-checked read back into the same structs. A session's CSR is not
// stored: the recovered session's update applier builds it from the
// decoded graph, so it cannot disagree with that graph, and a recovered
// server's rankings are bit-identical to the never-killed one's.
//
// File layout:
//
//   magic "BRSNAP01" | u32 version | payload | u32 crc32c(everything before)
//
// The whole-file checksum makes torn or bit-flipped snapshot files a
// typed kDataLoss on load; recovery then falls back to the next-older
// valid snapshot (the WAL is never truncated, so an older snapshot just
// means a longer replay, not lost data). Files are written with
// util::AtomicFileWrite and named snapshot-<lsn, 16 hex digits>.brsnap,
// so lexicographic filename order is LSN order.

#ifndef BIORANK_STORAGE_SNAPSHOT_H_
#define BIORANK_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "serve/reliability_cache.h"
#include "util/status.h"

namespace biorank::storage {

/// One resolved reliability-cache entry, keyed by canonical repr (the
/// hash is recomputed on load — it is a pure function of the repr).
struct SnapshotCacheEntry {
  std::string repr;
  serve::CacheEntry entry;
};

/// One live session's durable state.
struct SnapshotSession {
  uint64_t id = 0;
  /// LSN of the last delta applied to this session at capture time. May
  /// exceed the state's global wal_lsn (a delta can land between the
  /// checkpoint capturing the global LSN and freezing this session);
  /// replay skips exactly the deltas with lsn <= applied_lsn.
  uint64_t applied_lsn = 0;
  int32_t matched_proteins = 0;
  std::unordered_map<int, NodeId> go_node;
  std::unordered_map<NodeId, std::string> answer_labels;
  /// The exact live graph: node/edge capacities, tombstones, and
  /// probabilities are preserved id-for-id, so replayed deltas address
  /// the same ids they were logged against.
  QueryGraph graph;
  /// Neither written nor read: encoding ignores it and load leaves it
  /// empty (the session's applier builds its own snapshot from `graph`).
  /// Kept only because bench_ledger's pipeline copy assigns it.
  CsrSnapshot csr;
};

/// Everything one checkpoint file holds.
struct SnapshotState {
  /// Configuration fingerprint (api::Server computes it over the options
  /// that determine ranking values); load refuses a mismatch.
  uint64_t fingerprint = 0;
  /// Covering LSN: every session-lifecycle record with lsn <= wal_lsn is
  /// reflected in `sessions`; replay starts past it.
  uint64_t wal_lsn = 0;
  uint64_t next_session_id = 1;
  std::vector<SnapshotSession> sessions;
  /// Resolved cache entries, LRU-oldest first, so restoring them in
  /// order reproduces the recency order.
  std::vector<SnapshotCacheEntry> cache_entries;
};

/// Serializes `state` into the full file image (header + payload +
/// whole-file checksum).
std::string EncodeSnapshot(const SnapshotState& state);

/// Parses and verifies a snapshot file image. kDataLoss on a checksum,
/// magic, version, bounds, or structural-invariant failure;
/// kFailedPrecondition when the file's fingerprint differs from
/// `expected_fingerprint`.
Result<SnapshotState> DecodeSnapshot(const std::string& bytes,
                                     uint64_t expected_fingerprint);

/// "snapshot-<lsn as 16 hex digits>.brsnap".
std::string SnapshotFileName(uint64_t lsn);

/// Encodes and atomically writes `state` to its canonical filename under
/// `dir`. Outputs the path and encoded size when the pointers are set.
Status WriteSnapshotFile(const std::string& dir, const SnapshotState& state,
                         std::string* path_out = nullptr,
                         uint64_t* bytes_out = nullptr);

/// Snapshot files under `dir` as (lsn, full path), newest (highest LSN)
/// first. A missing directory is an empty list, not an error.
std::vector<std::pair<uint64_t, std::string>> ListSnapshots(
    const std::string& dir);

}  // namespace biorank::storage

#endif  // BIORANK_STORAGE_SNAPSHOT_H_
