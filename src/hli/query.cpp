#include "hli/query.hpp"

#include <algorithm>

#include "support/telemetry.hpp"

namespace hli::query {

using namespace format;

namespace {

const telemetry::Counter c_views_built = telemetry::counter("query.views_built");

}  // namespace

// The dense item arrays are sized one past this ID so every query is a
// bounds-checked index.
ItemId max_id_of(const HliEntry& entry) {
  ItemId max_id = entry.next_id;
  for (const RegionEntry& region : entry.regions) {
    for (const EquivClass& cls : region.classes) {
      max_id = std::max(max_id, cls.id);
      for (const ItemId item : cls.member_items) max_id = std::max(max_id, item);
      for (const ItemId sub : cls.member_subclasses) max_id = std::max(max_id, sub);
    }
    for (const AliasEntry& alias : region.aliases) {
      for (const ItemId cls : alias.classes) max_id = std::max(max_id, cls);
    }
    for (const LcddEntry& dep : region.lcdds) {
      max_id = std::max({max_id, dep.src, dep.dst});
    }
    for (const CallEffectEntry& eff : region.call_effects) {
      if (!eff.is_subregion) max_id = std::max(max_id, eff.call_item);
    }
  }
  return max_id;
}

HliUnitView::HliUnitView(const HliEntry& entry)
    : entry_(&entry), built_generation_(entry.generation) {
  c_views_built.add();
  // ---- Region side: dense remap + Euler tour ---------------------------
  RegionId max_region = kNoRegion;
  for (const RegionEntry& region : entry.regions) {
    max_region = std::max(max_region, region.id);
  }
  region_index_.assign(static_cast<std::size_t>(max_region) + 1, kNone);
  rinfo_.resize(entry.regions.size());
  for (std::uint32_t i = 0; i < entry.regions.size(); ++i) {
    const RegionEntry& region = entry.regions[i];
    // First entry wins on duplicate IDs, matching map emplace semantics.
    if (region_index_[region.id] == kNone) region_index_[region.id] = i;
    rinfo_[i].id = region.id;
    rinfo_[i].parent_id = region.parent;
    rinfo_[i].table = &region;
  }
  // Child lists derived from parent links (robust against stale
  // RegionEntry::children); regions with unknown/absent parents are roots.
  std::vector<std::vector<std::uint32_t>> children(rinfo_.size());
  std::vector<std::uint32_t> roots;
  for (std::uint32_t i = 0; i < rinfo_.size(); ++i) {
    const std::uint32_t parent = rinfo_[i].parent_id != kNoRegion
                                     ? dense_region(rinfo_[i].parent_id)
                                     : kNone;
    if (parent == kNone || parent == i) {
      roots.push_back(i);
    } else {
      rinfo_[i].parent = parent;
      children[parent].push_back(i);
    }
  }
  // Iterative Euler tour; `visited` breaks malformed parent cycles (any
  // region unreachable from a root is started as its own root so the view
  // never hangs on corrupt input).
  std::vector<bool> visited(rinfo_.size(), false);
  std::uint32_t timer = 0;
  const auto tour = [&](std::uint32_t root) {
    if (visited[root]) return;
    std::vector<std::pair<std::uint32_t, std::size_t>> stack{{root, 0}};
    visited[root] = true;
    rinfo_[root].pre = timer++;
    rinfo_[root].depth = rinfo_[root].parent == kNone
                             ? 0
                             : rinfo_[rinfo_[root].parent].depth + 1;
    rinfo_[root].nearest_loop =
        rinfo_[root].table->type == RegionType::Loop ? rinfo_[root].id
        : rinfo_[root].parent == kNone
            ? kNoRegion
            : rinfo_[rinfo_[root].parent].nearest_loop;
    while (!stack.empty()) {
      auto& [node, next_child] = stack.back();
      if (next_child < children[node].size()) {
        const std::uint32_t child = children[node][next_child++];
        if (visited[child]) continue;
        visited[child] = true;
        rinfo_[child].pre = timer++;
        rinfo_[child].depth = rinfo_[node].depth + 1;
        rinfo_[child].nearest_loop = rinfo_[child].table->type == RegionType::Loop
                                         ? rinfo_[child].id
                                         : rinfo_[node].nearest_loop;
        stack.emplace_back(child, 0);
      } else {
        rinfo_[node].post = timer - 1;
        stack.pop_back();
      }
    }
  };
  for (const std::uint32_t root : roots) tour(root);
  for (std::uint32_t i = 0; i < rinfo_.size(); ++i) tour(i);

  // ---- Item/class side: dense ownership + flattened chains -------------
  const std::size_t id_limit = static_cast<std::size_t>(max_id_of(entry)) + 1;
  item_region_.assign(id_limit, kNoRegion);
  iteminfo_.assign(id_limit, ItemInfo{});
  cinfo_.assign(id_limit, ClassInfo{});
  std::vector<ItemId> own_class(id_limit, kNoItem);
  std::vector<ItemId> class_parent(id_limit, kNoItem);
  for (const RegionEntry& region : entry.regions) {
    for (const EquivClass& cls : region.classes) {
      if ((cinfo_[cls.id].flags & kIsClass) == 0) {
        cinfo_[cls.id].flags =
            kIsClass | (cls.type == EquivAccType::Definite ? kDefinite : 0) |
            (cls.unknown_target ? kUnknownTarget : 0);
        cinfo_[cls.id].region = region.id;
      }
      for (const ItemId item : cls.member_items) {
        if (item_region_[item] == kNoRegion) item_region_[item] = region.id;
        if (own_class[item] == kNoItem) own_class[item] = cls.id;
      }
      for (const ItemId sub : cls.member_subclasses) {
        if (class_parent[sub] == kNoItem) class_parent[sub] = cls.id;
      }
    }
    for (const CallEffectEntry& eff : region.call_effects) {
      if (!eff.is_subregion && item_region_[eff.call_item] == kNoRegion) {
        item_region_[eff.call_item] = region.id;
      }
    }
  }
  // Direct item -> dense region index (skips the region_index_ hop on the
  // pair-query hot path).
  for (std::size_t item = 0; item < id_limit; ++item) {
    if (item_region_[item] != kNoRegion) {
      iteminfo_[item].dense = dense_region(item_region_[item]);
    }
  }
  // Flatten every item's lifted-class chain: entry k is the class after k
  // lifts, in lockstep with the region parent chain (capped at the root).
  for (std::size_t item = 0; item < id_limit; ++item) {
    if (own_class[item] == kNoItem) continue;
    const std::uint32_t dr = iteminfo_[item].dense;
    if (dr == kNone) continue;  // Class member recorded, region unknown.
    iteminfo_[item].chain_off = static_cast<std::uint32_t>(chain_pool_.size());
    ItemId cls = own_class[item];
    chain_pool_.push_back(cls);
    std::uint32_t len = 1;
    for (std::uint32_t depth = rinfo_[dr].depth; depth > 0; --depth) {
      if (cls >= class_parent.size() || class_parent[cls] == kNoItem) break;
      cls = class_parent[cls];
      chain_pool_.push_back(cls);
      ++len;
    }
    iteminfo_[item].chain_len = len;
  }

  // ---- Alias side: per-class sorted partner lists ----------------------
  std::vector<std::vector<ItemId>> partners(id_limit);
  for (const RegionEntry& region : entry.regions) {
    for (const AliasEntry& alias : region.aliases) {
      for (const ItemId a : alias.classes) {
        if (a >= id_limit || cinfo_[a].region != region.id) continue;
        for (const ItemId b : alias.classes) {
          if (b != a && b < id_limit) partners[a].push_back(b);
        }
      }
    }
  }
  for (std::size_t cls = 0; cls < id_limit; ++cls) {
    if (partners[cls].empty()) continue;
    std::sort(partners[cls].begin(), partners[cls].end());
    partners[cls].erase(std::unique(partners[cls].begin(), partners[cls].end()),
                        partners[cls].end());
    cinfo_[cls].alias_off = static_cast<std::uint32_t>(alias_pool_.size());
    cinfo_[cls].alias_len = static_cast<std::uint32_t>(partners[cls].size());
    alias_pool_.insert(alias_pool_.end(), partners[cls].begin(),
                       partners[cls].end());
  }
}

RegionId HliUnitView::region_of(ItemId item) const {
  check_fresh();
  return item < item_region_.size() ? item_region_[item] : kNoRegion;
}

RegionId HliUnitView::parent_region(RegionId region) const {
  check_fresh();
  const std::uint32_t d = dense_region(region);
  return d != kNone ? rinfo_[d].parent_id : kNoRegion;
}

RegionId HliUnitView::innermost_loop(RegionId region) const {
  check_fresh();
  const std::uint32_t d = dense_region(region);
  return d != kNone ? rinfo_[d].nearest_loop : kNoRegion;
}

bool HliUnitView::region_encloses(RegionId outer, RegionId inner) const {
  check_fresh();
  if (inner == kNoRegion) return false;
  if (inner == outer) return true;
  const std::uint32_t di = dense_region(inner);
  const std::uint32_t do_ = dense_region(outer);
  if (di == kNone || do_ == kNone) return false;
  return dense_encloses(do_, di);
}

RegionId HliUnitView::common_region(ItemId a, ItemId b) const {
  check_fresh();
  const RegionId ra = region_of(a);
  const RegionId rb = region_of(b);
  if (ra == kNoRegion || rb == kNoRegion) return kNoRegion;
  const std::uint32_t lca = dense_lca(dense_region(ra), dense_region(rb));
  return lca != kNone ? rinfo_[lca].id : kNoRegion;
}

ItemId HliUnitView::class_of_at(ItemId item, RegionId region) const {
  check_fresh();
  if (item >= iteminfo_.size() || iteminfo_[item].chain_off == kNone) {
    return kNoItem;
  }
  const std::uint32_t d0 = iteminfo_[item].dense;
  const std::uint32_t dr = dense_region(region);
  if (dr == kNone || !dense_encloses(dr, d0)) return kNoItem;
  return class_at_ancestor(iteminfo_[item], dr);
}

EquivAcc HliUnitView::alias_of_classes(ItemId ca, ItemId cb,
                                       std::uint32_t lca) const {
  if (!class_known(ca) || !class_known(cb)) return EquivAcc::Maybe;
  const ClassInfo& ia = cinfo_[ca];
  const ClassInfo& ib = cinfo_[cb];
  if (((ia.flags | ib.flags) & kUnknownTarget) != 0) return EquivAcc::Maybe;
  const RegionId lca_id = rinfo_[lca].id;
  if (ia.region == lca_id && ib.region == lca_id) {
    // Hot path: binary search in ca's precomputed partner list.
    if (ia.alias_off == kNone) return EquivAcc::None;
    const auto begin = alias_pool_.begin() + ia.alias_off;
    const auto end = begin + ia.alias_len;
    return std::binary_search(begin, end, cb) ? EquivAcc::Maybe
                                              : EquivAcc::None;
  }
  // Lifted classes recorded under another region (malformed or foreign
  // tables): fall back to scanning the LCA's alias entries like the
  // reference oracle.
  for (const AliasEntry& alias : rinfo_[lca].table->aliases) {
    const bool has_a = std::find(alias.classes.begin(), alias.classes.end(),
                                 ca) != alias.classes.end();
    const bool has_b = std::find(alias.classes.begin(), alias.classes.end(),
                                 cb) != alias.classes.end();
    if (has_a && has_b) return EquivAcc::Maybe;
  }
  return EquivAcc::None;
}

std::vector<LcddResult> HliUnitView::get_lcdd(RegionId loop, ItemId a,
                                              ItemId b) const {
  check_fresh();
  std::vector<LcddResult> out;
  const std::uint32_t dl = dense_region(loop);
  if (dl == kNone || rinfo_[dl].table->type != RegionType::Loop) return out;
  const ItemId ca = class_of_at(a, loop);
  const ItemId cb = class_of_at(b, loop);
  if (ca == kNoItem || cb == kNoItem) return out;
  for (const LcddEntry& dep : rinfo_[dl].table->lcdds) {
    if (dep.src == ca && dep.dst == cb) {
      out.push_back({dep.type, dep.distance, true});
    } else if (dep.src == cb && dep.dst == ca) {
      out.push_back({dep.type, dep.distance, false});
    }
  }
  return out;
}

bool HliUnitView::class_iteration_disjoint(RegionId loop, ItemId cls) const {
  check_fresh();
  const std::uint32_t dl = dense_region(loop);
  if (dl == kNone || rinfo_[dl].table->type != RegionType::Loop) return false;
  if (!class_known(cls)) return false;
  if ((cinfo_[cls].flags & kUnknownTarget) != 0) return false;
  if (cinfo_[cls].region != loop) return false;
  const format::RegionEntry& table = *rinfo_[dl].table;
  for (const format::EquivClass& c : table.classes) {
    if (c.id != cls) continue;
    if (c.loop_invariant || c.unknown_target) return false;
    for (const format::LcddEntry& dep : table.lcdds) {
      if (dep.src == cls && dep.dst == cls) return false;
    }
    return true;
  }
  return false;
}

CallAcc HliUnitView::get_call_acc(ItemId mem, ItemId call) const {
  check_fresh();
  const RegionId call_region = region_of(call);
  const RegionId mem_region = region_of(mem);
  if (call_region == kNoRegion || mem_region == kNoRegion) return CallAcc::RefMod;

  // Least common region of the memory item and the call.
  const std::uint32_t dc = dense_region(call_region);
  const std::uint32_t lca = dense_lca(dense_region(mem_region), dc);
  if (lca == kNone) return CallAcc::RefMod;
  const RegionId lca_id = rinfo_[lca].id;

  const ItemId mem_class = class_of_at(mem, lca_id);
  if (mem_class == kNoItem) return CallAcc::RefMod;
  if (class_known(mem_class) &&
      (cinfo_[mem_class].flags & kUnknownTarget) != 0) {
    return CallAcc::RefMod;
  }

  // Locate the effect entry at the LCA: per-item if the call is immediate,
  // otherwise the aggregate entry of the LCA child containing the call.
  const RegionEntry* region = rinfo_[lca].table;
  const CallEffectEntry* effect = nullptr;
  if (call_region == lca_id) {
    for (const CallEffectEntry& eff : region->call_effects) {
      if (!eff.is_subregion && eff.call_item == call) {
        effect = &eff;
        break;
      }
    }
  } else {
    // Child of lca on the path to call_region.
    std::uint32_t child = dc;
    while (child != kNone && rinfo_[child].parent != lca) {
      child = rinfo_[child].parent;
    }
    if (child != kNone) {
      const RegionId child_id = rinfo_[child].id;
      for (const CallEffectEntry& eff : region->call_effects) {
        if (eff.is_subregion && eff.subregion == child_id) {
          effect = &eff;
          break;
        }
      }
    }
  }
  if (effect == nullptr || effect->unknown) return CallAcc::RefMod;

  const bool in_ref = std::find(effect->ref_classes.begin(),
                                effect->ref_classes.end(),
                                mem_class) != effect->ref_classes.end();
  const bool in_mod = std::find(effect->mod_classes.begin(),
                                effect->mod_classes.end(),
                                mem_class) != effect->mod_classes.end();
  if (in_ref && in_mod) return CallAcc::RefMod;
  if (in_mod) return CallAcc::Mod;
  if (in_ref) return CallAcc::Ref;
  return CallAcc::None;
}

}  // namespace hli::query
