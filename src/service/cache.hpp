// Content-addressed caches for the hlid compile service.
//
//   * CompileCache — the production driver::UnitCache: compiled units
//     keyed by (lowered-RTL fp, HLIB per-unit checksum, options fp),
//     sharded by key hash so concurrent compile_many workers mostly
//     touch disjoint locks, each shard an LRU bounded in entries.  This
//     is the layer that makes an unchanged unit never recompile: a hit
//     splices byte-identical RTL/HLI/stats back into the pipeline.
//   * ResponseCache — whole-request memoization keyed by the (options
//     text, store path, source bytes) of the request itself, compared
//     byte for byte on every hit: an unchanged REQUEST skips even the
//     front-end and lowering, which is what pushes the warm/cold
//     latency ratio past the 5x acceptance bar.  Sound because service
//     responses are pure functions of exactly those inputs.
//
// Both caches account into `service.*` telemetry counters
// (docs/observability.md) through one shared AtomicCounterSet.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "driver/pipeline.hpp"
#include "support/telemetry.hpp"

namespace hli::service {

/// Handles to the `service.*` counters (registered once, idempotent).
struct ServiceCounters {
  telemetry::Counter cache_hits;        ///< Unit-cache hits.
  telemetry::Counter cache_misses;      ///< Unit-cache misses.
  telemetry::Counter cache_evictions;   ///< Units evicted by LRU pressure.
  telemetry::Counter units_compiled;    ///< Units compiled cold (inserted).
  telemetry::Counter request_hits;      ///< Whole-response cache hits.
  telemetry::Counter request_evictions; ///< Responses evicted.
  telemetry::Counter requests;          ///< Compile requests served.
  telemetry::Counter compile_errors;    ///< Requests failed in the pipeline.
  telemetry::Counter protocol_errors;   ///< Malformed/rejected frames.
  telemetry::Counter queue_depth_peak;  ///< High-water mark of queued work.
};

[[nodiscard]] const ServiceCounters& service_counters();

/// Sharded LRU unit cache.  Thread-safe; entries are handed out as
/// shared_ptr so an evicted unit stays valid for readers mid-splice.
class CompileCache : public driver::UnitCache {
 public:
  /// Shard count, clamped to the capacity so a cache-size-1
  /// configuration still evicts globally, not per-shard.
  static constexpr std::size_t kShards = 8;

  /// `max_entries` total across shards (minimum 1).
  explicit CompileCache(std::size_t max_entries);

  [[nodiscard]] std::shared_ptr<const driver::CachedUnit> lookup(
      const driver::UnitCacheKey& key) override;
  void insert(const driver::UnitCacheKey& key,
              driver::CachedUnit value) override;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Snapshot of the service.* counters this cache accounted.
  [[nodiscard]] telemetry::CounterSet counters() const {
    return counters_.snapshot();
  }
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  struct KeyHash {
    std::size_t operator()(const driver::UnitCacheKey& key) const {
      return static_cast<std::size_t>(key.hash());
    }
  };
  struct Entry {
    driver::UnitCacheKey key;
    std::shared_ptr<const driver::CachedUnit> unit;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< Front = most recently used.
    std::unordered_map<driver::UnitCacheKey, std::list<Entry>::iterator,
                       KeyHash>
        by_key;
    std::size_t capacity = 1;
  };

  Shard& shard_for(const driver::UnitCacheKey& key);

  /// Declared BEFORE counters_: member init order registers the
  /// service.* ids first, so the AtomicCounterSet (sized at construction
  /// to the registry) has slots for them.
  const ServiceCounters& ids_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable telemetry::AtomicCounterSet counters_;
};

/// LRU memo of fully-encoded response payloads.  `unit_count` rides
/// along so a request-tier hit still advances service.cache_hits by the
/// number of units it avoided recompiling (the acceptance counter the
/// CI warm pass asserts on covers both tiers).
class ResponseCache {
 public:
  explicit ResponseCache(std::size_t max_entries);

  /// Everything a response depends on, each part length-delimited so no
  /// two distinct requests share a key (sources "ab","c" differ from
  /// "a","bc").
  [[nodiscard]] static std::string key(std::string_view options_text,
                                       std::string_view store_path,
                                       const std::vector<std::string>& sources);

  /// The cached response payload for `key`, or empty shared_ptr.
  [[nodiscard]] std::shared_ptr<const std::string> lookup(
      std::string_view key, std::size_t* unit_count = nullptr);
  void insert(std::string key, std::string payload, std::size_t unit_count);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] telemetry::CounterSet counters() const {
    return counters_.snapshot();
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::string> payload;
    std::size_t unit_count = 0;
  };

  /// Same ordering constraint as CompileCache::ids_.
  const ServiceCounters& ids_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;
  /// Views into each entry's own key (list nodes never move): a lookup
  /// hashes the whole request and compares it in full.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> by_key_;
  std::size_t capacity_;
  mutable telemetry::AtomicCounterSet counters_;
};

}  // namespace hli::service
