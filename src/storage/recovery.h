// Warm-boot orchestration: pick the newest *valid* snapshot in a
// storage directory (corrupt files fall back to the next-older one — the
// WAL is never truncated, so an older snapshot only means a longer
// replay), then hand the api layer everything it needs to rebuild the
// live state: the decoded snapshot plus the WAL replay records. The
// replay protocol (who skips what) lives with the state owner:
//
//   session open/close records with lsn <= snapshot.wal_lsn  -> skip
//     (the snapshot's session list already reflects them)
//   delta records for a snapshotted session with
//     lsn <= that session's applied_lsn                      -> skip
//   delta records whose session does not exist               -> skip
//     (the session was closed; its whole history is settled)
//   everything else                                          -> apply
//
// api::Server implements the loop (it owns the mediator and service the
// replayed opens/deltas go through); this module owns discovery,
// validation, and the recovery report the server exposes via
// recovery_report().

#ifndef BIORANK_STORAGE_RECOVERY_H_
#define BIORANK_STORAGE_RECOVERY_H_

#include <cstdint>
#include <string>

#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/status.h"

namespace biorank::storage {

/// The WAL's canonical location inside a storage directory.
std::string WalPath(const std::string& dir);

/// The outcome of a snapshot search.
struct SnapshotLoadResult {
  bool found = false;          ///< False when no valid snapshot exists.
  SnapshotState state;         ///< Valid iff `found`.
  std::string path;            ///< File the state was loaded from.
  int corrupt_skipped = 0;     ///< Unreadable/corrupt snapshots passed over.
};

/// Scans `dir` newest-first and returns the first snapshot that decodes
/// and checksums cleanly. Corrupt or unreadable files are skipped (and
/// counted), never fatal — except a fingerprint mismatch, which means
/// the directory belongs to a differently-configured server and aborts
/// the search with kFailedPrecondition.
Result<SnapshotLoadResult> LoadNewestValidSnapshot(const std::string& dir,
                                                   uint64_t fingerprint);

/// What one warm boot did — surfaced through
/// api::Server::recovery_report() and the biorank_storage_* metrics.
struct RecoveryReport {
  bool snapshot_loaded = false;
  uint64_t snapshot_lsn = 0;        ///< Covering LSN of the loaded snapshot.
  int corrupt_snapshots_skipped = 0;
  uint64_t replayed_records = 0;    ///< WAL records applied past the snapshot.
  uint64_t skipped_records = 0;     ///< WAL records the snapshot already covered.
  uint64_t wal_truncated_bytes = 0; ///< Torn-tail bytes dropped on open.
  bool wal_torn_tail = false;
  uint64_t sessions_recovered = 0;
  uint64_t cache_entries_restored = 0;
  double seconds = 0.0;             ///< Wall time of the whole boot.
};

}  // namespace biorank::storage

#endif  // BIORANK_STORAGE_RECOVERY_H_
