// Thread-safe LRU memo mapping canonical reduced-graph keys to
// reliability results (deterministic bounds, and — once a candidate has
// been resolved — the exact or converged-Monte-Carlo value). This is the
// serving layer's cross-request reuse store: tuples and successive
// exploratory queries whose reduced evidence subgraphs are isomorphic
// resolve to one cached computation.

#ifndef BIORANK_SERVE_RELIABILITY_CACHE_H_
#define BIORANK_SERVE_RELIABILITY_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/canonical.h"

namespace biorank::serve {

/// One cached resolution state for a canonical key. Entries are created
/// with bounds only (cheap, always available after the bounding pass) and
/// upgraded in place once a value is computed. Every field is a pure
/// function of the canonical key, which is what keeps service output
/// bit-identical with the cache on or off.
struct CacheEntry {
  double lower = 0.0;       ///< Deterministic lower reliability bound.
  double upper = 1.0;       ///< Deterministic upper reliability bound.
  bool has_value = false;   ///< True once the reliability is resolved.
  double value = 0.0;       ///< Resolved reliability (clamped to bounds).
  bool exact = false;       ///< Value from an exact kernel, not MC.
  int64_t trials = 0;       ///< MC trials spent so far (0 for exact values).
  /// Integer reach count over the first `trials` trials of the shard
  /// schedule. While `trials` is short of the service's convergence
  /// target the entry is a resumable partial MC state (has_value stays
  /// false); any later refinement — this request's or another's — picks
  /// up at the next shard, so partial work is shared across handles.
  int64_t tally = 0;
};

/// Monotonic counters; `entries` is the current live total. Stats()
/// reads them under the cache lock, so the snapshot satisfies
/// `insertions - evictions - invalidations == entries`.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;       ///< Capacity-driven LRU drops.
  uint64_t invalidations = 0;   ///< Entries dropped by InvalidateKeys.
  uint64_t entries = 0;

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Configuration for ReliabilityCache.
struct ReliabilityCacheOptions {
  /// Entry budget (>= 1); beyond it the LRU tail is evicted.
  size_t capacity = 1 << 16;
};

/// LRU cache behind one mutex. A request reads and publishes the cache
/// sequentially (which keeps the LRU order deterministic), so only
/// concurrent requests ever meet on the lock.
class ReliabilityCache {
 public:
  explicit ReliabilityCache(ReliabilityCacheOptions options = {});

  /// Returns the entry for `key` (touching its LRU position) or nullopt.
  /// Counts one hit or miss.
  std::optional<CacheEntry> Get(const CanonicalKey& key);

  /// Inserts or overwrites the entry for `key` and marks it most
  /// recently used; evicts the LRU tail beyond capacity.
  void Put(const CanonicalKey& key, const CacheEntry& entry);

  /// Removes every present key and returns how many entries were
  /// dropped, each counted as one invalidation (never as a hit or miss:
  /// invalidation is bookkeeping, not a lookup). The ingest layer calls
  /// this with exactly the canonical keys an applied EvidenceDelta
  /// orphaned, so the rest of the cache stays warm across updates.
  size_t InvalidateKeys(const std::vector<CanonicalKey>& keys);

  /// Point-in-time counters, read under the cache lock.
  CacheStats Stats() const;

  /// Point-in-time copy of every entry, as (canonical repr, entry)
  /// pairs, LRU-oldest first — the storage layer's checkpoint export.
  /// Feeding the pairs back through Restore() in order reproduces the
  /// recency order (most recently used ends up at the front again).
  /// Bounds-only and partial-MC entries are exported too: every
  /// CacheEntry field is a pure function of the canonical key (the
  /// bit-identity contract), so a restored partial state resumes exactly
  /// where the original left off — and the bounds-only entries are what
  /// lets a warm boot keep pruning without re-resolving, preserving the
  /// pre-kill hit rate.
  std::vector<std::pair<std::string, CacheEntry>> Export() const;

  /// Re-inserts exported entries in order. Counts as normal insertions;
  /// capacity eviction applies as usual.
  void Restore(const std::vector<std::pair<std::string, CacheEntry>>& entries);

 private:
  using Lru = std::list<std::pair<std::string, CacheEntry>>;

  /// Put by repr; `mu_` must be held.
  void PutLocked(const std::string& repr, const CacheEntry& entry);

  const size_t capacity_;
  mutable std::mutex mu_;
  Lru lru_;  ///< Most recent at front.
  std::unordered_map<std::string, Lru::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace biorank::serve

#endif  // BIORANK_SERVE_RELIABILITY_CACHE_H_
