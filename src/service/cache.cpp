#include "service/cache.hpp"

#include <algorithm>

namespace hli::service {

const ServiceCounters& service_counters() {
  static const ServiceCounters counters = {
      telemetry::counter("service.cache_hits"),
      telemetry::counter("service.cache_misses"),
      telemetry::counter("service.cache_evictions"),
      telemetry::counter("service.units_compiled"),
      telemetry::counter("service.request_hits"),
      telemetry::counter("service.request_evictions"),
      telemetry::counter("service.requests"),
      telemetry::counter("service.compile_errors"),
      telemetry::counter("service.protocol_errors"),
      telemetry::counter("service.queue_depth_peak"),
  };
  return counters;
}

CompileCache::CompileCache(std::size_t max_entries)
    : ids_(service_counters()),  // Registers ids before counters_ sizes.
      capacity_(std::max<std::size_t>(1, max_entries)) {
  const std::size_t shard_count = std::min(kShards, capacity_);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    // Distribute capacity; earlier shards take the remainder.
    shard->capacity = capacity_ / shard_count +
                      (i < capacity_ % shard_count ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

CompileCache::Shard& CompileCache::shard_for(const driver::UnitCacheKey& key) {
  return *shards_[key.hash() % shards_.size()];
}

std::shared_ptr<const driver::CachedUnit> CompileCache::lookup(
    const driver::UnitCacheKey& key) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) {
    counters_.add(service_counters().cache_misses);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  counters_.add(service_counters().cache_hits);
  return it->second->unit;
}

void CompileCache::insert(const driver::UnitCacheKey& key,
                          driver::CachedUnit value) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  counters_.add(service_counters().units_compiled);
  const auto it = shard.by_key.find(key);
  if (it != shard.by_key.end()) {
    // Racing insert for the same key: compilation is deterministic, so
    // the existing value is identical — just refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{
      key, std::make_shared<const driver::CachedUnit>(std::move(value))});
  shard.by_key.emplace(key, shard.lru.begin());
  while (shard.lru.size() > shard.capacity) {
    shard.by_key.erase(shard.lru.back().key);
    shard.lru.pop_back();
    counters_.add(service_counters().cache_evictions);
  }
}

std::size_t CompileCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

std::uint64_t CompileCache::hits() const {
  return counters_.value(service_counters().cache_hits);
}

std::uint64_t CompileCache::misses() const {
  return counters_.value(service_counters().cache_misses);
}

std::uint64_t CompileCache::evictions() const {
  return counters_.value(service_counters().cache_evictions);
}

ResponseCache::ResponseCache(std::size_t max_entries)
    : ids_(service_counters()),
      capacity_(std::max<std::size_t>(1, max_entries)) {}

namespace {

void append_part(std::string& out, std::string_view part) {
  const std::uint64_t size = part.size();
  out.append(reinterpret_cast<const char*>(&size), sizeof size);
  out.append(part);
}

}  // namespace

std::string ResponseCache::key(std::string_view options_text,
                               std::string_view store_path,
                               const std::vector<std::string>& sources) {
  std::string out;
  append_part(out, options_text);
  append_part(out, store_path);
  for (const std::string& source : sources) append_part(out, source);
  return out;
}

std::shared_ptr<const std::string> ResponseCache::lookup(
    std::string_view key, std::size_t* unit_count) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  counters_.add(service_counters().request_hits);
  if (unit_count != nullptr) *unit_count = it->second->unit_count;
  return it->second->payload;
}

void ResponseCache::insert(std::string key, std::string payload,
                           std::size_t unit_count) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (by_key_.count(key) != 0) return;  // Racing duplicate; keep first.
  lru_.push_front(Entry{
      std::move(key), std::make_shared<const std::string>(std::move(payload)),
      unit_count});
  by_key_.emplace(lru_.front().key, lru_.begin());
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
    counters_.add(service_counters().request_evictions);
  }
}

std::size_t ResponseCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace hli::service
