// The LRU reliability cache: hit/miss accounting, in-place upgrade of
// bounds-only entries, LRU eviction under a tiny capacity, the
// checkpoint export order, and — because concurrent requests share it —
// concurrent hammering tests meant to run under ThreadSanitizer (CI's
// tsan job).

#include "serve/reliability_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace biorank::serve {
namespace {

CanonicalKey Key(const std::string& repr) {
  CanonicalKey key;
  key.repr = repr;
  key.hash = Fnv1a64(repr);
  return key;
}

CacheEntry Value(double v) {
  CacheEntry entry;
  entry.lower = v;
  entry.upper = v;
  entry.has_value = true;
  entry.value = v;
  entry.exact = true;
  return entry;
}

TEST(ReliabilityCacheTest, MissThenHit) {
  ReliabilityCache cache;
  EXPECT_FALSE(cache.Get(Key("a")).has_value());
  cache.Put(Key("a"), Value(0.25));
  std::optional<CacheEntry> got = cache.Get(Key("a"));
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->value, 0.25);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(ReliabilityCacheTest, BoundsEntryUpgradesInPlace) {
  ReliabilityCache cache;
  CacheEntry bounds;
  bounds.lower = 0.1;
  bounds.upper = 0.9;
  cache.Put(Key("k"), bounds);
  ASSERT_FALSE(cache.Get(Key("k"))->has_value);
  CacheEntry resolved = bounds;
  resolved.has_value = true;
  resolved.value = 0.4;
  resolved.trials = 7896;
  cache.Put(Key("k"), resolved);
  std::optional<CacheEntry> got = cache.Get(Key("k"));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->has_value);
  EXPECT_DOUBLE_EQ(got->value, 0.4);
  EXPECT_EQ(got->trials, 7896);
  EXPECT_EQ(cache.Stats().entries, 1u);  // Upgrade, not a second entry.
}

TEST(ReliabilityCacheTest, LruEvictionUnderTinyCapacity) {
  ReliabilityCacheOptions options;
  options.capacity = 2;
  ReliabilityCache cache(options);
  cache.Put(Key("a"), Value(0.1));
  cache.Put(Key("b"), Value(0.2));
  ASSERT_TRUE(cache.Get(Key("a")).has_value());  // "a" is now most recent.
  cache.Put(Key("c"), Value(0.3));               // Evicts LRU tail "b".
  EXPECT_TRUE(cache.Get(Key("a")).has_value());
  EXPECT_FALSE(cache.Get(Key("b")).has_value());
  EXPECT_TRUE(cache.Get(Key("c")).has_value());
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ReliabilityCacheTest, CapacityBoundsTheWholeCache) {
  ReliabilityCacheOptions options;
  options.capacity = 3;
  ReliabilityCache cache(options);
  for (int i = 0; i < 100; ++i) {
    cache.Put(Key("k" + std::to_string(i)), Value(0.5));
  }
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 97u);
  // The three most recent survive.
  EXPECT_TRUE(cache.Get(Key("k97")).has_value());
  EXPECT_TRUE(cache.Get(Key("k99")).has_value());
  EXPECT_FALSE(cache.Get(Key("k96")).has_value());
}

TEST(ReliabilityCacheTest, ExportIsOldestFirstAndRestoreKeepsRecency) {
  ReliabilityCache cache;
  cache.Put(Key("a"), Value(0.1));
  cache.Put(Key("b"), Value(0.2));
  cache.Put(Key("c"), Value(0.3));
  ASSERT_TRUE(cache.Get(Key("a")).has_value());  // Recency: b, c, a.
  std::vector<std::pair<std::string, CacheEntry>> exported = cache.Export();
  ASSERT_EQ(exported.size(), 3u);
  EXPECT_EQ(exported[0].first, "b");
  EXPECT_EQ(exported[1].first, "c");
  EXPECT_EQ(exported[2].first, "a");
  EXPECT_DOUBLE_EQ(exported[2].second.value, 0.1);

  ReliabilityCache restored;
  restored.Restore(exported);
  EXPECT_EQ(restored.Stats().insertions, 3u);
  std::vector<std::pair<std::string, CacheEntry>> again = restored.Export();
  ASSERT_EQ(again.size(), 3u);
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].first, exported[i].first);
  }
  // The restored order decides the next eviction, as in the original.
  ReliabilityCacheOptions options;
  options.capacity = 3;
  ReliabilityCache small(options);
  small.Restore(exported);
  small.Put(Key("d"), Value(0.4));
  EXPECT_FALSE(small.Get(Key("b")).has_value());
  EXPECT_TRUE(small.Get(Key("a")).has_value());
}

TEST(ReliabilityCacheTest, InvalidatingOneKeyDropsOneEntryAndCounts) {
  ReliabilityCache cache;
  cache.Put(Key("a"), Value(0.1));
  cache.Put(Key("b"), Value(0.2));
  EXPECT_EQ(cache.InvalidateKeys({Key("a")}), 1u);
  EXPECT_EQ(cache.InvalidateKeys({Key("a")}), 0u)
      << "second invalidation finds nothing";
  EXPECT_EQ(cache.InvalidateKeys({Key("never-inserted")}), 0u);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  // Invalidation is bookkeeping, not a lookup: no hit/miss accounting.
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_FALSE(cache.Get(Key("a")).has_value());
  EXPECT_TRUE(cache.Get(Key("b")).has_value());
}

TEST(ReliabilityCacheTest, InvalidateKeysReportsOnlyLiveDrops) {
  ReliabilityCache cache;
  cache.Put(Key("a"), Value(0.1));
  cache.Put(Key("b"), Value(0.2));
  cache.Put(Key("c"), Value(0.3));
  EXPECT_EQ(cache.InvalidateKeys({Key("a"), Key("c"), Key("ghost")}), 2u);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_TRUE(cache.Get(Key("b")).has_value());
}

TEST(ReliabilityCacheTest, StatsSnapshotBalances) {
  // insertions - evictions - invalidations == entries must hold in any
  // Stats() snapshot; read under the cache lock it holds even while
  // other threads mutate (checked concurrently below).
  ReliabilityCacheOptions options;
  options.capacity = 16;
  ReliabilityCache cache(options);
  for (int i = 0; i < 100; ++i) {
    cache.Put(Key("k" + std::to_string(i)), Value(0.5));
    if (i % 3 == 0) cache.InvalidateKeys({Key("k" + std::to_string(i / 2))});
    if (i == 50) {
      std::vector<CanonicalKey> all;
      for (int j = 0; j <= i; ++j) all.push_back(Key("k" + std::to_string(j)));
      cache.InvalidateKeys(all);
    }
  }
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions - stats.evictions - stats.invalidations,
            stats.entries);
}

TEST(ReliabilityCacheTest, ConcurrentEvictionAndInvalidationAreRaceFree) {
  // Every pool thread mixes puts, gets, single-key and batch
  // invalidations, and Stats() snapshots on a cache small enough to
  // evict constantly. Run under TSan in CI; the inline assertion is the
  // snapshot balance invariant, which the locked Stats() read must keep
  // true at any instant.
  ReliabilityCacheOptions options;
  options.capacity = 24;
  ReliabilityCache cache(options);
  ThreadPool pool(3);
  constexpr int kShards = 48;
  constexpr int kOpsPerShard = 150;
  pool.ParallelFor(kShards, [&](int, int64_t shard) {
    for (int op = 0; op < kOpsPerShard; ++op) {
      int key_index = (static_cast<int>(shard) * 11 + op) % 64;
      CanonicalKey key = Key("k" + std::to_string(key_index));
      switch ((static_cast<int>(shard) + op) % 5) {
        case 0:
          cache.Put(key, Value(key_index / 100.0));
          break;
        case 1:
          cache.Get(key);
          break;
        case 2:
          cache.InvalidateKeys({key});
          break;
        case 3:
          cache.InvalidateKeys(
              {key, Key("k" + std::to_string((key_index + 1) % 64))});
          break;
        default: {
          CacheStats stats = cache.Stats();
          EXPECT_EQ(
              stats.insertions - stats.evictions - stats.invalidations,
              stats.entries);
          break;
        }
      }
    }
  });
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions - stats.evictions - stats.invalidations,
            stats.entries);
  EXPECT_LE(stats.entries, 24u);
}

TEST(ReliabilityCacheTest, ConcurrentMixedGetsAndPutsAreRaceFree) {
  // Hammer a small cache from every pool thread with overlapping keys so
  // the lock sees concurrent hits, inserts, upgrades, and evictions. The
  // assertions are deliberately weak — the point is that TSan observes
  // the interleavings.
  ReliabilityCacheOptions options;
  options.capacity = 32;
  ReliabilityCache cache(options);
  ThreadPool pool(3);
  constexpr int kShards = 64;
  constexpr int kOpsPerShard = 200;
  pool.ParallelFor(kShards, [&](int, int64_t shard) {
    for (int op = 0; op < kOpsPerShard; ++op) {
      int key_index = (static_cast<int>(shard) * 7 + op) % 48;
      CanonicalKey key = Key("k" + std::to_string(key_index));
      std::optional<CacheEntry> got = cache.Get(key);
      if (got.has_value() && got->has_value) {
        // Cached values are immutable once resolved.
        EXPECT_DOUBLE_EQ(got->value, key_index / 100.0);
      } else {
        cache.Put(key, Value(key_index / 100.0));
      }
    }
  });
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kShards) * kOpsPerShard);
  EXPECT_LE(stats.entries, 32u);
}

}  // namespace
}  // namespace biorank::serve
