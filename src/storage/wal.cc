#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "storage/codec.h"
#include "util/crc32c.h"
#include "util/file.h"

namespace biorank::storage {
namespace {

constexpr char kMagic[8] = {'B', 'R', 'W', 'A', 'L', '0', '0', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint64_t);
constexpr size_t kFrameHeaderSize = 2 * sizeof(uint32_t);
// lsn + type + session_id.
constexpr size_t kPayloadHeaderSize = sizeof(uint64_t) + 1 + sizeof(uint64_t);

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status DecodePayload(const char* data, size_t n, WalRecord& record) {
  ByteReader reader(data, n);
  uint8_t type = 0;
  BIORANK_RETURN_IF_ERROR(reader.GetU64(record.lsn));
  BIORANK_RETURN_IF_ERROR(reader.GetU8(type));
  BIORANK_RETURN_IF_ERROR(reader.GetU64(record.session_id));
  if (type < 1 || type > 3) {
    return Status::DataLoss("wal record has unknown type " +
                            std::to_string(type));
  }
  record.type = static_cast<WalRecordType>(type);
  record.body.assign(data + reader.pos(), n - reader.pos());
  return Status::OK();
}

/// Parses `bytes` (header already verified and stripped by the caller;
/// `base_offset` = kHeaderSize, for error messages). Implements the
/// torn-tail contract: the scan stops cleanly at the first incomplete
/// frame, and a CRC/decode failure on the *final* parseable frame also
/// counts as torn; a bad frame with complete frames after it is
/// kDataLoss. `valid_end` is the file offset right after the last good
/// record (where Open truncates to).
Status ParseRecords(const std::string& bytes, size_t base_offset,
                    WalReplay& replay, uint64_t& valid_end) {
  size_t pos = 0;
  valid_end = base_offset;
  // Offset (relative) + decoded record of a suspect frame: a frame whose
  // checksum or payload failed. Deferred because its meaning depends on
  // whether anything parseable follows it.
  bool have_bad_frame = false;
  size_t bad_frame_pos = 0;
  std::string bad_frame_reason;

  while (bytes.size() - pos >= kFrameHeaderSize) {
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    std::memcpy(&crc, bytes.data() + pos + sizeof(len), sizeof(crc));
    if (len < kPayloadHeaderSize || bytes.size() - pos - kFrameHeaderSize <
                                        static_cast<size_t>(len)) {
      // Incomplete (or nonsense-length) frame at the end of the scan:
      // the torn tail. If a bad frame came before it, that bad frame is
      // NOT last — but nothing complete followed it either, so the
      // simplest consistent reading is still truncation at the bad
      // frame (everything from it on is the tail a crash tore).
      break;
    }
    const char* payload = bytes.data() + pos + kFrameHeaderSize;
    WalRecord record;
    bool good = util::Crc32c(payload, len) == crc &&
                DecodePayload(payload, len, record).ok() &&
                record.lsn == replay.last_lsn + 1;
    if (!good) {
      if (have_bad_frame) {
        // Two independent bad frames with parseable framing: not a tail.
        return Status::DataLoss("wal corrupt at offset " +
                                std::to_string(base_offset + bad_frame_pos) +
                                ": " + bad_frame_reason);
      }
      have_bad_frame = true;
      bad_frame_pos = pos;
      bad_frame_reason = "checksum/payload mismatch";
      pos += kFrameHeaderSize + len;
      continue;
    }
    if (have_bad_frame) {
      // A complete, checksum-valid record follows the bad frame, so the
      // bad frame cannot be a torn tail — the file is corrupt mid-way.
      return Status::DataLoss("wal corrupt at offset " +
                              std::to_string(base_offset + bad_frame_pos) +
                              ": " + bad_frame_reason +
                              " with valid records following");
    }
    replay.records.push_back(std::move(record));
    replay.last_lsn = replay.records.back().lsn;
    pos += kFrameHeaderSize + len;
    valid_end = base_offset + pos;
  }

  uint64_t file_end = base_offset + bytes.size();
  replay.truncated_bytes = file_end - valid_end;
  replay.torn_tail = replay.truncated_bytes > 0;
  return Status::OK();
}

Result<WalReplay> ScanFile(const std::string& path, uint64_t fingerprint,
                           uint64_t& valid_end) {
  Result<std::string> contents = util::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& bytes = contents.value();
  if (bytes.size() < kHeaderSize) {
    return Status::DataLoss("wal file shorter than its header: " + path);
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("wal magic mismatch: " + path);
  }
  uint64_t file_fingerprint = 0;
  std::memcpy(&file_fingerprint, bytes.data() + sizeof(kMagic),
              sizeof(file_fingerprint));
  if (file_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "wal belongs to a differently-configured server (fingerprint "
        "mismatch): " +
        path);
  }
  WalReplay replay;
  Status parsed = ParseRecords(bytes.substr(kHeaderSize), kHeaderSize, replay,
                               valid_end);
  if (!parsed.ok()) return parsed;
  return replay;
}

}  // namespace

std::string WalFileHeader(uint64_t fingerprint) {
  std::string header(kMagic, sizeof(kMagic));
  header.append(reinterpret_cast<const char*>(&fingerprint),
                sizeof(fingerprint));
  return header;
}

std::string FrameWalRecord(uint64_t lsn, WalRecordType type,
                           uint64_t session_id, const std::string& body) {
  ByteWriter payload;
  payload.PutU64(lsn);
  payload.PutU8(static_cast<uint8_t>(type));
  payload.PutU64(session_id);
  payload.PutBytes(body.data(), body.size());
  const std::string& bytes = payload.bytes();
  uint32_t len = static_cast<uint32_t>(bytes.size());
  uint32_t crc = util::Crc32c(bytes.data(), bytes.size());
  std::string frame;
  frame.reserve(kFrameHeaderSize + bytes.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame.append(bytes);
  return frame;
}

Result<WalReplay> ReadWal(const std::string& path, uint64_t fingerprint) {
  uint64_t valid_end = 0;
  return ScanFile(path, fingerprint, valid_end);
}

Wal::Wal(std::string path, int fd, uint64_t last_lsn, WalOptions options)
    : path_(std::move(path)), options_(options), fd_(fd),
      last_lsn_(last_lsn) {
  stats_.last_lsn = last_lsn;
  if (options_.registry != nullptr) {
    append_seconds_ = options_.registry->GetHistogram(
        "biorank_storage_wal_append_seconds",
        "Latency of one WAL record append (frame + write + group fsync).");
    bytes_total_ = options_.registry->GetCounter(
        "biorank_storage_wal_bytes_total",
        "Framed bytes appended to the WAL.");
    records_total_ = options_.registry->GetCounter(
        "biorank_storage_wal_records_total", "Records appended to the WAL.");
    syncs_total_ = options_.registry->GetCounter(
        "biorank_storage_wal_syncs_total", "fsync calls issued by the WAL.");
  }
}

Wal::~Wal() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Result<Wal::OpenResult> Wal::Open(const std::string& path,
                                  uint64_t fingerprint, WalOptions options) {
  uint64_t valid_end = 0;
  WalReplay replay;
  Result<WalReplay> scanned = ScanFile(path, fingerprint, valid_end);
  if (scanned.ok()) {
    replay = std::move(scanned).value();
  } else if (scanned.status().code() == StatusCode::kNotFound) {
    // Fresh log.
    Status created = util::AtomicFileWrite(path, WalFileHeader(fingerprint));
    if (!created.ok()) return created;
    valid_end = kHeaderSize;
  } else {
    return scanned.status();
  }

  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Internal("cannot open wal for append: " + path + ": " +
                            std::strerror(errno));
  }
  // Drop the torn tail physically so the append offset is the end of the
  // last complete record.
  if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
    ::close(fd);
    return Status::Internal("cannot truncate wal torn tail: " + path);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return Status::Internal("cannot seek wal: " + path);
  }
  OpenResult result;
  result.replay = std::move(replay);
  result.wal.reset(new Wal(path, fd, result.replay.last_lsn, options));
  return result;
}

Result<uint64_t> Wal::Append(WalRecordType type, uint64_t session_id,
                             const std::string& body) {
  double start_s = MonotonicSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::Internal("wal is broken after a failed write: " + path_);
  }
  uint64_t lsn = last_lsn_ + 1;
  std::string frame = FrameWalRecord(lsn, type, session_id, body);
  const char* data = frame.data();
  size_t remaining = frame.size();
  while (remaining > 0) {
    ssize_t n = ::write(fd_, data, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A partial record may now be on disk — exactly the torn tail the
      // next Open truncates. Fail-stop so no later record lands after it.
      broken_ = true;
      return Status::Internal("wal write failed: " + path_ + ": " +
                              std::strerror(errno));
    }
    data += n;
    remaining -= static_cast<size_t>(n);
  }
  last_lsn_ = lsn;
  stats_.records++;
  stats_.bytes += frame.size();
  stats_.last_lsn = lsn;
  unsynced_records_++;

  if (options_.fsync_every_n > 0 &&
      unsynced_records_ >= options_.fsync_every_n) {
    BIORANK_RETURN_IF_ERROR(SyncLocked());
  }
  if (records_total_ != nullptr) {
    records_total_->Add(1);
    bytes_total_->Add(frame.size());
    append_seconds_->Observe(MonotonicSeconds() - start_s);
  }
  return lsn;
}

Status Wal::SyncLocked() {
  if (unsynced_records_ == 0) return Status::OK();
  if (::fsync(fd_) != 0) {
    broken_ = true;
    return Status::Internal("wal fsync failed: " + path_);
  }
  unsynced_records_ = 0;
  stats_.syncs++;
  if (syncs_total_ != nullptr) syncs_total_->Add(1);
  return Status::OK();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::Internal("wal is broken after a failed write: " + path_);
  }
  return SyncLocked();
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_lsn_;
}

}  // namespace biorank::storage
