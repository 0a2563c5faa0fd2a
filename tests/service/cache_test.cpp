// Unit tests for the service cache tiers (service/cache.hpp): LRU and
// shard semantics of the CompileCache, the cache-size-1 thrash
// configuration, counter accounting, and ResponseCache memoization.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "service/cache.hpp"

namespace {

using namespace hli::service;

hli::driver::UnitCacheKey key_of(std::uint64_t rtl, std::uint64_t hli = 1,
                                 std::uint64_t opts = 1) {
  hli::driver::UnitCacheKey key;
  key.rtl_fp = rtl;
  key.hli_fp = hli;
  key.options_fp = opts;
  return key;
}

hli::driver::CachedUnit unit_named(const std::string& name) {
  hli::driver::CachedUnit unit;
  unit.rtl.name = name;
  return unit;
}

TEST(CompileCacheTest, MissThenHit) {
  CompileCache cache(8);
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(key_of(1), unit_named("f"));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rtl.name, "f");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CompileCacheTest, KeyComponentsAllDiscriminate) {
  CompileCache cache(8);
  cache.insert(key_of(1, 1, 1), unit_named("f"));
  EXPECT_NE(cache.lookup(key_of(1, 1, 1)), nullptr);
  EXPECT_EQ(cache.lookup(key_of(2, 1, 1)), nullptr) << "rtl_fp ignored";
  EXPECT_EQ(cache.lookup(key_of(1, 2, 1)), nullptr) << "hli_fp ignored";
  EXPECT_EQ(cache.lookup(key_of(1, 1, 2)), nullptr) << "options_fp ignored";
}

TEST(CompileCacheTest, LruEvictsColdestWithinShard) {
  // Two entries per shard; three keys that land in the same shard.
  CompileCache cache(2 * CompileCache::kShards);
  std::vector<hli::driver::UnitCacheKey> keys;
  for (std::uint64_t i = 0; keys.size() < 3; ++i) {
    if (key_of(i).hash() % CompileCache::kShards ==
        key_of(0).hash() % CompileCache::kShards) {
      keys.push_back(key_of(i));
    }
  }
  cache.insert(keys[0], unit_named("a"));
  cache.insert(keys[1], unit_named("b"));
  ASSERT_NE(cache.lookup(keys[0]), nullptr);  // Refresh a; b is coldest.
  cache.insert(keys[2], unit_named("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.lookup(keys[0]), nullptr);
  EXPECT_EQ(cache.lookup(keys[1]), nullptr) << "hot entry was evicted";
  EXPECT_NE(cache.lookup(keys[2]), nullptr);
}

TEST(CompileCacheTest, CacheSizeOneThrashes) {
  // The acceptance fault config: capacity 1 (shards clamp to 1), every
  // distinct unit evicts the previous one, yet each entry is usable
  // while resident and nothing crashes or leaks.
  CompileCache cache(1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(cache.lookup(key_of(i)), nullptr);
    const std::string name = std::string("u").append(std::to_string(i));
    cache.insert(key_of(i), unit_named(name));
    const auto hit = cache.lookup(key_of(i));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->rtl.name, name);
    EXPECT_EQ(cache.size(), 1u);
  }
  EXPECT_EQ(cache.evictions(), 99u);
  EXPECT_EQ(cache.misses(), 100u);
  EXPECT_EQ(cache.hits(), 100u);
}

TEST(CompileCacheTest, EvictedEntryStaysValidForHolders) {
  CompileCache cache(1);
  cache.insert(key_of(1), unit_named("keep"));
  const auto held = cache.lookup(key_of(1));
  ASSERT_NE(held, nullptr);
  cache.insert(key_of(2), unit_named("evictor"));  // Evicts key 1.
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(held->rtl.name, "keep");  // shared_ptr keeps the unit alive.
}

TEST(CompileCacheTest, DuplicateInsertRefreshesInsteadOfDuplicating) {
  CompileCache cache(4);
  cache.insert(key_of(1), unit_named("first"));
  cache.insert(key_of(1), unit_named("second"));  // Racing duplicate.
  EXPECT_EQ(cache.size(), 1u);
  // Determinism contract: both values are identical in production, so
  // keeping the first is sound.
  EXPECT_EQ(cache.lookup(key_of(1))->rtl.name, "first");
}

TEST(CompileCacheTest, ShardsShareTotalCapacity) {
  CompileCache cache(8);
  EXPECT_EQ(cache.capacity(), 8u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.insert(key_of(i), unit_named("x"));
  }
  EXPECT_LE(cache.size(), 8u);
}

TEST(CompileCacheTest, ConcurrentMixedTrafficIsSafe) {
  CompileCache cache(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < 500; ++i) {
        const std::uint64_t k = (static_cast<std::uint64_t>(t) << 32) | (i % 96);
        if (cache.lookup(key_of(k)) == nullptr) {
          cache.insert(key_of(k), unit_named("t"));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(cache.hits() + cache.misses(), 8u * 500u);
}

TEST(ResponseCacheTest, KeyCoversOptionsStoreAndSources) {
  const std::vector<std::string> sources = {"int main() { return 0; }"};
  const std::string base = ResponseCache::key("opts", "", sources);
  EXPECT_EQ(base, ResponseCache::key("opts", "", sources));
  EXPECT_NE(base, ResponseCache::key("opts2", "", sources));
  EXPECT_NE(base, ResponseCache::key("opts", "/store.hlib", sources));
  EXPECT_NE(base, ResponseCache::key("opts", "", {"int main() { return 1; }"}));
  EXPECT_NE(base, ResponseCache::key("opts", "", {}));
  // Part boundaries count, not just the concatenated bytes.
  EXPECT_NE(ResponseCache::key("opts", "", {"ab", "c"}),
            ResponseCache::key("opts", "", {"a", "bc"}));
  EXPECT_NE(ResponseCache::key("opts", "x", {"y"}),
            ResponseCache::key("optsx", "", {"y"}));
}

TEST(ResponseCacheTest, HitReturnsPayloadAndUnitCount) {
  ResponseCache cache(4);
  EXPECT_EQ(cache.lookup("k1"), nullptr);
  cache.insert("k1", "payload-bytes", 7);
  std::size_t units = 0;
  const auto hit = cache.lookup("k1", &units);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "payload-bytes");
  EXPECT_EQ(units, 7u);
}

TEST(ResponseCacheTest, LruBoundedWithEvictionCounters) {
  ResponseCache cache(2);
  cache.insert("k1", "a", 1);
  cache.insert("k2", "b", 1);
  ASSERT_NE(cache.lookup("k1"), nullptr);  // k2 becomes coldest.
  cache.insert("k3", "c", 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup("k2"), nullptr);
  EXPECT_NE(cache.lookup("k1"), nullptr);
  EXPECT_NE(cache.lookup("k3"), nullptr);
  const hli::telemetry::CounterSet counters = cache.counters();
  EXPECT_EQ(counters.value(service_counters().request_evictions), 1u);
}

}  // namespace
