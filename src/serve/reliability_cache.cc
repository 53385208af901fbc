#include "serve/reliability_cache.h"

#include <algorithm>

namespace biorank::serve {

ReliabilityCache::ReliabilityCache(ReliabilityCacheOptions options)
    : capacity_(std::max<size_t>(1, options.capacity)) {}

std::optional<CacheEntry> ReliabilityCache::Get(const CanonicalKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key.repr);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void ReliabilityCache::Put(const CanonicalKey& key, const CacheEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  PutLocked(key.repr, entry);
}

void ReliabilityCache::PutLocked(const std::string& repr,
                                 const CacheEntry& entry) {
  auto it = index_.find(repr);
  if (it != index_.end()) {
    it->second->second = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(repr, entry);
  index_.emplace(repr, lru_.begin());
  ++insertions_;
  while (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

size_t ReliabilityCache::InvalidateKeys(const std::vector<CanonicalKey>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t erased = 0;
  for (const CanonicalKey& key : keys) {
    auto it = index_.find(key.repr);
    if (it == index_.end()) continue;
    lru_.erase(it->second);
    index_.erase(it);
    ++erased;
  }
  invalidations_ += erased;
  return erased;
}

CacheStats ReliabilityCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.evictions = evictions_;
  stats.invalidations = invalidations_;
  stats.entries = index_.size();
  return stats;
}

std::vector<std::pair<std::string, CacheEntry>>
ReliabilityCache::Export() const {
  std::lock_guard<std::mutex> lock(mu_);
  // The LRU list is most-recent-first, so walking it backwards emits
  // oldest first.
  return {lru_.rbegin(), lru_.rend()};
}

void ReliabilityCache::Restore(
    const std::vector<std::pair<std::string, CacheEntry>>& entries) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [repr, entry] : entries) PutLocked(repr, entry);
}

}  // namespace biorank::serve
