// Demand-driven HLI import (paper §3.2.1: the back-end "imports HLI per
// function on demand").  An HliStore wraps one serialized interchange
// file — text or HLIB binary, in memory or mmap'd from disk — and hands
// out decoded HliEntry tables per unit:
//
//   * Binary containers decode only the meta block (string pool + unit
//     index) up front; each unit payload is decoded on first `get`, so a
//     driver compiling one function out of a thousand-unit file pays for
//     one unit plus the index.
//   * Text files have no index and are parsed eagerly on construction —
//     the store is then just a name-keyed view over the parsed entries.
//
// `get` is thread-safe: a shared store behind `driver::compile_many`
// decodes each unit exactly once (std::call_once per unit) no matter how
// many workers race for it.  Returned entries are owned by the store and
// immutable through this interface; compilation copies the entry it
// mutates (HLI maintenance is per-compilation state, the store is the
// shared read-only source).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hli/serialize.hpp"
#include "support/mmap_file.hpp"
#include "support/telemetry.hpp"

namespace hli {

class HliStore {
 public:
  /// Takes ownership of in-memory interchange bytes; the format is
  /// auto-detected by magic.  Throws support::CompileError on malformed
  /// input (for binary: header/footer/meta problems — unit payloads are
  /// validated lazily).
  explicit HliStore(std::string bytes);

  /// Opens `path` through support::MappedFile (mmap with a read-all
  /// fallback) and auto-detects the format.
  [[nodiscard]] static HliStore open(const std::string& path);

  /// open() on the heap — for owners that must outlive a scope (the
  /// compile service's cross-request store registry); the type itself
  /// stays non-movable so Slot pointers remain stable.
  [[nodiscard]] static std::unique_ptr<HliStore> open_unique(
      const std::string& path);

  HliStore(HliStore&&) = delete;  // Slots hand out stable pointers.
  HliStore& operator=(HliStore&&) = delete;

  [[nodiscard]] std::size_t unit_count() const { return slots_.size(); }
  [[nodiscard]] std::vector<std::string> unit_names() const;
  [[nodiscard]] bool has_unit(const std::string& name) const {
    return by_name_.count(name) != 0;
  }
  [[nodiscard]] bool is_binary() const { return binary_; }

  /// The entry for `name`, decoding it on first request; nullptr when the
  /// store has no such unit.  Thread-safe; the pointer stays valid (and
  /// the entry unchanged) for the store's lifetime.  Throws
  /// support::CompileError, naming the unit and the ID, when the unit
  /// names an item, class or region ID past what it declares: the query
  /// view sizes its arrays by those IDs, so an unchecked file could make
  /// the importer allocate gigabytes.
  [[nodiscard]] const format::HliEntry* get(const std::string& name) const;

  /// Content fingerprint of `name`'s serialized HLI — the identity the
  /// compile service's content-addressed cache keys units by.  For HLIB
  /// containers this derives from the per-unit index (checksum + payload
  /// length) WITHOUT decoding the payload, so a warm cache hit never
  /// touches the unit's bytes; text stores (parsed eagerly anyway) hash
  /// the re-serialized entry.  std::nullopt when the unit is absent.
  [[nodiscard]] std::optional<std::uint64_t> unit_checksum(
      const std::string& name) const;

  /// Materializes every unit into an HliFile, preserving on-disk order.
  /// Throws like get() on a unit past the import bound.
  [[nodiscard]] format::HliFile import_all() const;

  /// Units decoded so far — the laziness observable the demand-driven
  /// import tests assert on.  Text stores parse eagerly, so this equals
  /// unit_count() from construction.  Backed by the store's shared
  /// telemetry slot for `store.units_decoded` (one mechanism, not two).
  [[nodiscard]] std::size_t units_decoded() const;

  /// How many times `name`'s payload was actually decoded (0 or, if
  /// `get` honors its decode-once contract, exactly 1).
  [[nodiscard]] std::size_t decode_count(const std::string& name) const;

 private:
  explicit HliStore(support::MappedFile file);
  void init(std::string_view bytes);

  struct Slot {
    std::string name;
    std::size_t index = 0;  ///< Position in the container's unit index.
    mutable std::once_flag once;
    mutable format::HliEntry entry;
    mutable std::string error;  ///< Import-bound violation, if any.
    mutable std::atomic<std::uint32_t> decodes{0};
  };

  const Slot* find_slot(const std::string& name) const;
  /// Decodes `slot` once and returns its entry; throws its bound error.
  const format::HliEntry& decode_slot(const Slot& slot) const;

  support::MappedFile file_;  ///< Backing storage when open()ed from disk.
  std::string owned_;         ///< Backing storage for in-memory bytes.
  serialize::HlibContainer container_;  ///< Meta block (binary only).
  /// unique_ptr: std::once_flag is neither movable nor copyable.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unordered_map<std::string_view, std::size_t> by_name_;
  bool binary_ = false;
  /// Shared `store.*` accounting (units_decoded, bytes_mapped): atomic
  /// because compile_many workers race decode_slot on a shared store.
  mutable telemetry::AtomicCounterSet counters_;
};

}  // namespace hli
