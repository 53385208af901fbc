// Append-only write-ahead log of the server's session lifecycle and
// every applied EvidenceDelta. Records are length-prefixed and
// CRC32C-framed with a monotonic log sequence number (LSN):
//
//   file   := header record*
//   header := magic "BRWAL001" | u64 options_fingerprint
//   record := u32 payload_len | u32 crc32c(payload) | payload
//   payload:= u64 lsn | u8 type | u64 session_id | body
//
// Torn-tail contract (the load-bearing recovery property): a crash can
// only tear the *last* record — appends are sequential and each record
// is written with one write(2). Open() therefore replays to the last
// complete, checksum-valid record and truncates anything after it as a
// clean no-op, never an error. A checksum failure that is *followed* by
// further parseable records cannot be a torn tail (the tail is by
// definition last), so it surfaces as typed kDataLoss — the
// kTolerateCorruptedTailRecords distinction.
//
// Durability: group fsync, always on. Appends are synced every
// `fsync_every_n` records, on explicit Sync() (which Checkpoint() calls
// before stamping a snapshot's covering LSN) and when the handle closes.
// Between syncs a crash may lose the un-synced suffix — which recovery
// then treats as a torn tail.

#ifndef BIORANK_STORAGE_WAL_H_
#define BIORANK_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace biorank::storage {

/// What one WAL record describes.
enum class WalRecordType : uint8_t {
  kOpenSession = 1,  ///< body = ExploratoryQuery (storage/codec.h).
  kApplyDelta = 2,   ///< body = EvidenceDelta (storage/codec.h).
  kCloseSession = 3, ///< empty body (explicit close or idle eviction).
};

/// One decoded record.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kApplyDelta;
  uint64_t session_id = 0;
  std::string body;
};

/// Group-fsync knobs.
struct WalOptions {
  /// fsync after every n-th appended record; 1 = every append, 0
  /// disables count-based syncing (Sync() only).
  uint64_t fsync_every_n = 32;
  /// Metrics sink: when set, appends record into
  /// biorank_storage_wal_append_seconds / _wal_bytes_total /
  /// _wal_records_total / _wal_syncs_total. Borrowed, must outlive the
  /// Wal.
  obs::Registry* registry = nullptr;
};

/// Monotonic counters of one Wal instance (appends since Open).
struct WalStats {
  uint64_t records = 0;   ///< Records appended by this instance.
  uint64_t bytes = 0;     ///< Framed bytes appended by this instance.
  uint64_t syncs = 0;     ///< fsync calls issued.
  uint64_t last_lsn = 0;  ///< Highest LSN on disk (replayed + appended).
};

/// The result of opening a log: the writable handle plus everything the
/// scan recovered on the way to the end of the file.
struct WalReplay {
  std::vector<WalRecord> records;  ///< Every complete record, in order.
  uint64_t last_lsn = 0;           ///< LSN of the last complete record.
  uint64_t truncated_bytes = 0;    ///< Torn-tail bytes dropped by Open.
  bool torn_tail = false;          ///< Whether a torn tail was truncated.
};

/// The append-side handle. Thread-safe: Append/Sync serialize on an
/// internal mutex (appends are rare next to rankings; one lock keeps the
/// LSN, the file offset, and the group-sync counter consistent).
class Wal {
 public:
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  struct OpenResult {
    std::unique_ptr<Wal> wal;
    WalReplay replay;
  };

  /// Opens (or creates) the log at `path`, scans every complete record,
  /// physically truncates a torn tail, and positions the handle for
  /// appends. `fingerprint` is stamped into new files and checked
  /// against existing ones (mismatch → kFailedPrecondition: the log
  /// belongs to a differently-configured server and replaying it would
  /// silently change results). Mid-file corruption → kDataLoss.
  static Result<OpenResult> Open(const std::string& path,
                                 uint64_t fingerprint,
                                 WalOptions options = {});

  /// Appends one record, assigning the next LSN (returned). Group-fsync
  /// per the options. An I/O failure leaves the log unusable for further
  /// appends (fail-stop) and returns kInternal.
  Result<uint64_t> Append(WalRecordType type, uint64_t session_id,
                          const std::string& body);

  /// Forces an fsync of everything appended so far.
  Status Sync();

  WalStats stats() const;
  uint64_t last_lsn() const;

  const std::string& path() const { return path_; }
  const WalOptions& options() const { return options_; }

 private:
  Wal(std::string path, int fd, uint64_t last_lsn, WalOptions options);

  Status SyncLocked();

  std::string path_;
  WalOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t last_lsn_ = 0;
  uint64_t unsynced_records_ = 0;
  bool broken_ = false;  ///< A write failed; later appends fail fast.
  WalStats stats_;

  obs::Histogram* append_seconds_ = nullptr;
  obs::Counter* bytes_total_ = nullptr;
  obs::Counter* records_total_ = nullptr;
  obs::Counter* syncs_total_ = nullptr;
};

/// Read-only scan of a log file (the testing/inspection entry; Open uses
/// the same parser). NotFound when the file does not exist;
/// kFailedPrecondition on a fingerprint mismatch; kDataLoss on mid-file
/// corruption. A torn tail is reported, not an error.
Result<WalReplay> ReadWal(const std::string& path, uint64_t fingerprint);

/// Frames one record exactly as Append writes it (exposed for tests that
/// construct corrupt logs byte by byte).
std::string FrameWalRecord(uint64_t lsn, WalRecordType type,
                           uint64_t session_id, const std::string& body);

/// The 16-byte header of a fresh log file.
std::string WalFileHeader(uint64_t fingerprint);

}  // namespace biorank::storage

#endif  // BIORANK_STORAGE_WAL_H_
