#include "hli/store.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"
#include "support/string_utils.hpp"

namespace hli {

namespace {
const telemetry::Counter c_units_decoded =
    telemetry::counter("store.units_decoded");
const telemetry::Counter c_bytes_mapped =
    telemetry::counter("store.bytes_mapped");

/// The import bound.  query::HliUnitView sizes its dense arrays by the
/// largest item/class ID and the largest region ID an entry names, so an
/// entry is accepted only when those are what it declares: every item or
/// class ID below next_id, next_id - 1 no larger than the number of
/// distinct item and class IDs, and every region ID at most the region
/// count.  Returns the first violation, or an empty string.
std::string bounds_error(const format::HliEntry& entry) {
  using format::ItemId;
  using format::RegionId;
  const std::string unit = "HLI unit '" + entry.unit_name + "': ";
  std::vector<ItemId> declared;
  std::string error;
  const auto item = [&](ItemId id) {
    if (error.empty() && id >= entry.next_id) {
      error = unit + "item or class ID " + std::to_string(id) +
              " is not below next_id " + std::to_string(entry.next_id);
    }
  };
  const auto region = [&](RegionId id) {
    if (error.empty() && id > entry.regions.size()) {
      error = unit + "region ID " + std::to_string(id) + " is past its " +
              std::to_string(entry.regions.size()) + " regions";
    }
  };
  for (const format::LineEntry& line : entry.line_table.lines()) {
    for (const format::ItemEntry& it : line.items) {
      item(it.id);
      declared.push_back(it.id);
    }
  }
  region(entry.root_region);
  for (const format::RegionEntry& r : entry.regions) {
    region(r.id);
    region(r.parent);
    for (const RegionId child : r.children) region(child);
    for (const format::EquivClass& cls : r.classes) {
      item(cls.id);
      declared.push_back(cls.id);
      for (const ItemId id : cls.member_items) item(id);
      for (const ItemId id : cls.member_subclasses) item(id);
    }
    for (const format::AliasEntry& alias : r.aliases) {
      for (const ItemId id : alias.classes) item(id);
    }
    for (const format::LcddEntry& dep : r.lcdds) {
      item(dep.src);
      item(dep.dst);
    }
    for (const format::CallEffectEntry& eff : r.call_effects) {
      if (eff.is_subregion) {
        region(eff.subregion);
      } else {
        item(eff.call_item);
      }
      for (const ItemId id : eff.ref_classes) item(id);
      for (const ItemId id : eff.mod_classes) item(id);
    }
  }
  if (!error.empty()) return error;
  std::sort(declared.begin(), declared.end());
  const auto distinct = static_cast<std::uint64_t>(
      std::unique(declared.begin(), declared.end()) - declared.begin());
  if (entry.next_id > distinct + 1) {
    return unit + "next_id " + std::to_string(entry.next_id) +
           " is past the " + std::to_string(distinct) +
           " item and class IDs it declares";
  }
  return {};
}
}  // namespace

HliStore::HliStore(std::string bytes) {
  owned_ = std::move(bytes);
  init(owned_);
}

HliStore::HliStore(support::MappedFile file) : file_(std::move(file)) {
  counters_.add(c_bytes_mapped, file_.view().size());
  c_bytes_mapped.add(file_.view().size());
  init(file_.view());
}

HliStore HliStore::open(const std::string& path) {
  // Prvalue return: guaranteed elision, so the deleted move never fires.
  return HliStore(support::MappedFile::open(path));
}

std::unique_ptr<HliStore> HliStore::open_unique(const std::string& path) {
  return std::unique_ptr<HliStore>(
      new HliStore(support::MappedFile::open(path)));
}

void HliStore::init(std::string_view bytes) {
  binary_ = serialize::is_hlib(bytes);
  if (binary_) {
    container_ = serialize::open_hlib(bytes);
    slots_.reserve(container_.units.size());
    for (std::size_t i = 0; i < container_.units.size(); ++i) {
      auto slot = std::make_unique<Slot>();
      slot->name = container_.unit_name(i);
      slot->index = i;
      slots_.push_back(std::move(slot));
    }
  } else {
    // No per-unit index in the text format: parse everything now.
    format::HliFile file = serialize::read_hli(bytes);
    slots_.reserve(file.entries.size());
    for (std::size_t i = 0; i < file.entries.size(); ++i) {
      auto slot = std::make_unique<Slot>();
      slot->name = file.entries[i].unit_name;
      slot->index = i;
      slot->entry = std::move(file.entries[i]);
      slot->error = bounds_error(slot->entry);
      std::call_once(slot->once, [] {});  // Mark decoded.
      slot->decodes.store(1, std::memory_order_relaxed);
      slots_.push_back(std::move(slot));
    }
    counters_.add(c_units_decoded, slots_.size());
    c_units_decoded.add(slots_.size());
  }
  by_name_.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    by_name_.emplace(slots_[i]->name, i);  // First unit wins on duplicates.
  }
}

std::vector<std::string> HliStore::unit_names() const {
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& slot : slots_) names.push_back(slot->name);
  return names;
}

const HliStore::Slot* HliStore::find_slot(const std::string& name) const {
  const auto it = by_name_.find(std::string_view(name));
  return it == by_name_.end() ? nullptr : slots_[it->second].get();
}

const format::HliEntry& HliStore::decode_slot(const Slot& slot) const {
  std::call_once(slot.once, [this, &slot] {
    slot.entry = serialize::decode_hlib_unit(container_, slot.index);
    slot.error = bounds_error(slot.entry);
    slot.decodes.fetch_add(1, std::memory_order_relaxed);
    counters_.add(c_units_decoded);
    c_units_decoded.add();  // Also charge the decoding thread's sink.
  });
  if (!slot.error.empty()) throw support::CompileError(slot.error);
  return slot.entry;
}

const format::HliEntry* HliStore::get(const std::string& name) const {
  const Slot* slot = find_slot(name);
  return slot == nullptr ? nullptr : &decode_slot(*slot);
}

std::optional<std::uint64_t> HliStore::unit_checksum(
    const std::string& name) const {
  const Slot* slot = find_slot(name);
  if (slot == nullptr) return std::nullopt;
  if (binary_) {
    // Index-only identity: the container's FNV checksum over the payload
    // plus its length, folded with the unit name so two same-bytes units
    // under different names stay distinct.  No payload decode.
    const serialize::HlibContainer::Unit& unit = container_.units[slot->index];
    std::uint64_t fp = support::fnv1a64(slot->name);
    fp = support::fnv1a64_mix(unit.checksum, fp);
    fp = support::fnv1a64_mix(unit.length, fp);
    return fp;
  }
  // Text stores are fully parsed at construction; hash the canonical
  // re-serialization (round-trip stable, docs/FORMAT.md).
  return support::fnv1a64(serialize::write_entry(slot->entry),
                          support::fnv1a64(slot->name));
}

format::HliFile HliStore::import_all() const {
  format::HliFile file;
  file.entries.reserve(slots_.size());
  for (const auto& slot : slots_) file.entries.push_back(decode_slot(*slot));
  return file;
}

std::size_t HliStore::units_decoded() const {
  return counters_.value(c_units_decoded);
}

std::size_t HliStore::decode_count(const std::string& name) const {
  const Slot* slot = find_slot(name);
  return slot == nullptr ? 0 : slot->decodes.load(std::memory_order_relaxed);
}

}  // namespace hli
