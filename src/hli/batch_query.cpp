#include "hli/batch_query.hpp"

#include <algorithm>

#include "support/telemetry.hpp"

namespace hli::query {

using namespace format;

namespace {

const telemetry::Counter c_batch_matrices =
    telemetry::counter("query.batch_matrices");

constexpr std::uint32_t kNone = 0xffffffffu;

}  // namespace

void BlockConflictMatrix::assign_slots(std::vector<std::uint32_t>& map,
                                       std::vector<std::uint32_t>& epochs,
                                       SlotOverflow& overflow,
                                       const std::vector<ItemId>& items,
                                       std::vector<ItemId>& slots) {
  slots.clear();
  overflow.clear();
  for (const ItemId item : items) {
    if (item < map.size()) {
      if (epochs[item] == epoch_) continue;  // Duplicate reference.
      epochs[item] = epoch_;
      map[item] = static_cast<std::uint32_t>(slots.size());
      slots.push_back(item);
    } else {
      bool seen = false;
      for (const auto& [id, slot] : overflow) {
        if (id == item) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      overflow.emplace_back(item, static_cast<std::uint32_t>(slots.size()));
      slots.push_back(item);
    }
  }
}

void BlockConflictMatrix::reset() {
  view_ = nullptr;
  words_ = 0;
  slots_.clear();
  call_slots_.clear();
  overflow_.clear();
  call_overflow_.clear();
  conflict_.clear();
  lcdd_.clear();
  call_ref_.clear();
  call_mod_.clear();
}

void BlockConflictMatrix::build(const HliUnitView& view,
                                const std::vector<ItemId>& mem_items,
                                const std::vector<ItemId>& call_items,
                                RegionId lcdd_loop) {
  view_ = &view;
  built_generation_ = view.entry().generation;
  c_batch_matrices.add();

  // A bumped epoch retires every earlier block's map stamps wholesale; on
  // the (never-in-practice) wraparound, clear the stamps for real.
  if (++epoch_ == 0) {
    std::fill(slot_epoch_.begin(), slot_epoch_.end(), 0u);
    std::fill(call_epoch_.begin(), call_epoch_.end(), 0u);
    epoch_ = 1;
  }
  const std::size_t limit = view.item_limit();
  if (slot_map_.size() < limit) {
    slot_map_.resize(limit);
    slot_epoch_.resize(limit, 0u);
    call_map_.resize(limit);
    call_epoch_.resize(limit, 0u);
  }
  assign_slots(slot_map_, slot_epoch_, overflow_, mem_items, slots_);
  assign_slots(call_map_, call_epoch_, call_overflow_, call_items,
               call_slots_);
  const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
  words_ = (n + 63) / 64;
  conflict_.assign(static_cast<std::size_t>(n) * words_, 0);
  lcdd_.clear();
  call_ref_.assign(call_slots_.size() * words_, 0);
  call_mod_.assign(call_slots_.size() * words_, 0);

  // Dense owning region per slot, then the distinct-region groups.  A
  // slot outside the dense arrays (or with no owning region) answers
  // Maybe against everything, exactly like the scalar prologue.
  slot_dense_.resize(n);
  slot_group_.resize(n);
  regions_.clear();
  for (std::uint32_t s = 0; s < n; ++s) {
    const ItemId item = slots_[s];
    const std::uint32_t d =
        item < view.iteminfo_.size() ? view.iteminfo_[item].dense : kNone;
    slot_dense_[s] = d;
    if (d != kNone) regions_.push_back(d);
  }
  std::sort(regions_.begin(), regions_.end());
  regions_.erase(std::unique(regions_.begin(), regions_.end()),
                 regions_.end());
  for (std::uint32_t s = 0; s < n; ++s) {
    slot_group_[s] =
        slot_dense_[s] == kNone
            ? kNone
            : static_cast<std::uint32_t>(
                  std::lower_bound(regions_.begin(), regions_.end(),
                                   slot_dense_[s]) -
                  regions_.begin());
  }

  fill_conflict_planes();
  fill_lcdd_plane(lcdd_loop);
  fill_call_planes();
}

void BlockConflictMatrix::fill_conflict_planes() {
  const HliUnitView& view = *view_;
  const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
  const std::uint32_t g = static_cast<std::uint32_t>(regions_.size());

  // One LCA walk per region PAIR (g is the number of distinct regions in
  // the block, typically a handful) instead of per item pair.
  rel_.clear();
  lca_rel_.assign(static_cast<std::size_t>(g) * g, kNone);
  for (std::uint32_t gi = 0; gi < g; ++gi) {
    for (std::uint32_t gj = 0; gj < g; ++gj) {
      const std::uint32_t l = view.dense_lca(regions_[gi], regions_[gj]);
      if (l == kNone) continue;  // Pair answers Maybe.
      std::uint32_t r = 0;
      while (r < rel_.size() && rel_[r] != l) ++r;
      if (r == rel_.size()) rel_.push_back(l);
      lca_rel_[static_cast<std::size_t>(gi) * g + gj] = r;
    }
  }

  // Per relevant region: resolve every slot's class ONCE, then compute
  // the class×class plane with the exact scalar may_conflict tail (a
  // byte per class pair: 1 when the answer is not None).
  const std::uint32_t nrel = static_cast<std::uint32_t>(rel_.size());
  class_idx_.assign(static_cast<std::size_t>(nrel) * n, kNone);
  rel_off_.resize(nrel);
  rel_stride_.resize(nrel);
  class_bits_.clear();
  slot_class_.resize(n);
  for (std::uint32_t r = 0; r < nrel; ++r) {
    const std::uint32_t lca = rel_[r];
    classes_.clear();
    for (std::uint32_t s = 0; s < n; ++s) {
      ItemId cls = kNoItem;
      const std::uint32_t d = slot_dense_[s];
      if (d != kNone && view.dense_encloses(lca, d)) {
        cls = view.class_at_ancestor(view.iteminfo_[slots_[s]], lca);
      }
      slot_class_[s] = cls;
      if (cls != kNoItem) classes_.push_back(cls);
    }
    std::sort(classes_.begin(), classes_.end());
    classes_.erase(std::unique(classes_.begin(), classes_.end()),
                   classes_.end());
    const std::uint32_t stride = static_cast<std::uint32_t>(classes_.size());
    rel_stride_[r] = stride;
    rel_off_[r] = class_bits_.size();
    class_bits_.resize(rel_off_[r] +
                       static_cast<std::size_t>(stride) * stride);
    std::uint8_t* plane = class_bits_.data() + rel_off_[r];
    std::fill(plane, plane + static_cast<std::size_t>(stride) * stride,
              std::uint8_t{0});

    // Different-class answers come from the alias table.  Instead of one
    // alias_of_classes probe per class PAIR (the O(k²) cost the scalar
    // path pays), classify each class once and walk each local class's
    // sorted partner list once — k² byte writes happen only for the rare
    // all-Maybe rows.  Categories mirror the scalar tail exactly:
    //   kMaybeAll: unknown class or unknown-target -> Maybe vs everything;
    //   kLocal:    recorded at the LCA -> partner-list membership;
    //   kForeign:  recorded under another region -> scalar fallback scan.
    constexpr std::uint8_t kLocal = 0, kMaybeAll = 1, kForeign = 2;
    const RegionId lca_id = view.rinfo_[lca].id;
    class_status_.resize(stride);
    for (std::uint32_t i = 0; i < stride; ++i) {
      const ItemId ca = classes_[i];
      if (!view.class_known(ca)) {
        class_status_[i] = kMaybeAll;
      } else if ((view.cinfo_[ca].flags & HliUnitView::kUnknownTarget) != 0) {
        class_status_[i] = kMaybeAll;
      } else {
        class_status_[i] =
            view.cinfo_[ca].region == lca_id ? kLocal : kForeign;
      }
    }
    for (std::uint32_t i = 0; i < stride; ++i) {
      const ItemId ca = classes_[i];
      // Diagonal: same class, always a conflict (Maybe or Definite).
      plane[static_cast<std::size_t>(i) * stride + i] = 1;
      switch (class_status_[i]) {
        case kMaybeAll:
          for (std::uint32_t j = 0; j < stride; ++j) {
            if (j == i) continue;
            plane[static_cast<std::size_t>(i) * stride + j] = 1;
            plane[static_cast<std::size_t>(j) * stride + i] = 1;
          }
          break;
        case kLocal: {
          const auto& info = view.cinfo_[ca];
          if (info.alias_off == kNone) break;
          for (std::uint32_t p = 0; p < info.alias_len; ++p) {
            const ItemId partner = view.alias_pool_[info.alias_off + p];
            const auto it = std::lower_bound(classes_.begin(), classes_.end(),
                                             partner);
            if (it == classes_.end() || *it != partner) continue;
            const std::uint32_t j =
                static_cast<std::uint32_t>(it - classes_.begin());
            if (j != i && class_status_[j] == kLocal) {
              plane[static_cast<std::size_t>(i) * stride + j] = 1;
            }
          }
          break;
        }
        case kForeign:
          // Lifted classes recorded under another region: the scalar path
          // scans the LCA's alias entries per pair; replay it exactly.
          for (std::uint32_t j = 0; j < stride; ++j) {
            if (j == i || class_status_[j] == kMaybeAll) continue;
            if (view.alias_of_classes(ca, classes_[j], lca) ==
                EquivAcc::Maybe) {
              plane[static_cast<std::size_t>(i) * stride + j] = 1;
              plane[static_cast<std::size_t>(j) * stride + i] = 1;
            }
          }
          break;
      }
    }
    for (std::uint32_t s = 0; s < n; ++s) {
      if (slot_class_[s] == kNoItem) continue;
      class_idx_[static_cast<std::size_t>(r) * n + s] =
          static_cast<std::uint32_t>(
              std::lower_bound(classes_.begin(), classes_.end(),
                               slot_class_[s]) -
              classes_.begin());
    }
  }

  // Item-plane fill.  Row `a`'s (rel, class row) depend only on b's
  // GROUP, so resolve them per (row, group) — the inner loop is then two
  // loads and a byte fetch per pair.
  row_plane_.resize(g);
  row_cidx_.resize(g);
  for (std::uint32_t a = 0; a < n; ++a) {
    const std::uint32_t ga = slot_group_[a];
    std::uint64_t* crow = conflict_.data() + static_cast<std::size_t>(a) * words_;
    if (ga == kNone) {
      // Unknown owning region: Maybe against everything (set the whole
      // conflict row word-wise; bits past n are never consulted).
      for (std::uint32_t w = 0; w < words_; ++w) crow[w] = ~std::uint64_t{0};
      continue;
    }
    for (std::uint32_t gb = 0; gb < g; ++gb) {
      row_plane_[gb] = nullptr;
      row_cidx_[gb] = nullptr;
      const std::uint32_t r = lca_rel_[static_cast<std::size_t>(ga) * g + gb];
      if (r == kNone) continue;
      const std::uint32_t ia = class_idx_[static_cast<std::size_t>(r) * n + a];
      if (ia == kNone) continue;
      row_plane_[gb] = class_bits_.data() + rel_off_[r] +
                       static_cast<std::size_t>(ia) * rel_stride_[r];
      row_cidx_[gb] = class_idx_.data() + static_cast<std::size_t>(r) * n;
    }
    for (std::uint32_t b = 0; b < n; ++b) {
      bool conflict = true;  // Default: Maybe (unknown slot / no LCA).
      const std::uint32_t gb = slot_group_[b];
      if (gb != kNone && row_plane_[gb] != nullptr) {
        const std::uint32_t ib = row_cidx_[gb][b];
        conflict = ib == kNone || row_plane_[gb][ib] != 0;
      }
      if (conflict) crow[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
  }
}

void BlockConflictMatrix::fill_lcdd_plane(RegionId lcdd_loop) {
  if (lcdd_loop == kNoRegion) return;
  const HliUnitView& view = *view_;
  const std::uint32_t dl = view.dense_region(lcdd_loop);
  if (dl == kNone || view.rinfo_[dl].table->type != RegionType::Loop) return;

  const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
  lcdd_.assign(static_cast<std::size_t>(n) * words_, 0);

  // Per-slot class at the loop (scalar class_of_at semantics), then ONE
  // scan of the loop's LCDD table: each entry sets the bit for every
  // (src-class slot, dst-class slot) pair, both directions — matching
  // the symmetric emptiness of get_lcdd(loop, a, b).
  for (std::uint32_t s = 0; s < n; ++s) {
    const ItemId item = slots_[s];
    ItemId cls = kNoItem;
    if (item < view.iteminfo_.size() &&
        view.iteminfo_[item].chain_off != kNone) {
      const std::uint32_t d0 = view.iteminfo_[item].dense;
      if (d0 != kNone && view.dense_encloses(dl, d0)) {
        cls = view.class_at_ancestor(view.iteminfo_[item], dl);
      }
    }
    slot_class_[s] = cls;
  }
  for (const LcddEntry& dep : view.rinfo_[dl].table->lcdds) {
    match_a_.clear();
    match_b_.clear();
    for (std::uint32_t s = 0; s < n; ++s) {
      if (slot_class_[s] == kNoItem) continue;
      if (slot_class_[s] == dep.src) match_a_.push_back(s);
      if (slot_class_[s] == dep.dst) match_b_.push_back(s);
    }
    for (const std::uint32_t a : match_a_) {
      for (const std::uint32_t b : match_b_) {
        set_bit(lcdd_, a, b);
        set_bit(lcdd_, b, a);
      }
    }
  }
}

void BlockConflictMatrix::fill_call_planes() {
  const HliUnitView& view = *view_;
  const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
  const std::uint32_t g = static_cast<std::uint32_t>(regions_.size());
  const std::uint32_t ncalls = static_cast<std::uint32_t>(call_slots_.size());
  if (ncalls == 0 || n == 0) return;

  // Per (call, mem-region-group) work hoisted out of the per-slot loop:
  // the LCA and the effect-entry lookup depend only on the group.
  group_lca_.resize(g);
  group_effect_.resize(g);
  auto& group_lca = group_lca_;
  auto& group_effect = group_effect_;

  for (std::uint32_t c = 0; c < ncalls; ++c) {
    std::uint64_t* rrow = call_ref_.data() + static_cast<std::size_t>(c) * words_;
    std::uint64_t* mrow = call_mod_.data() + static_cast<std::size_t>(c) * words_;
    const auto set_refmod = [&](std::uint32_t s) {
      rrow[s >> 6] |= std::uint64_t{1} << (s & 63);
      mrow[s >> 6] |= std::uint64_t{1} << (s & 63);
    };

    const ItemId call = call_slots_[c];
    const RegionId call_region =
        call < view.item_region_.size() ? view.item_region_[call] : kNoRegion;
    if (call_region == kNoRegion) {
      for (std::uint32_t s = 0; s < n; ++s) set_refmod(s);
      continue;
    }
    const std::uint32_t dc = view.dense_region(call_region);

    for (std::uint32_t gi = 0; gi < g; ++gi) {
      const std::uint32_t lca = view.dense_lca(regions_[gi], dc);
      group_lca[gi] = lca;
      group_effect[gi] = nullptr;
      if (lca == kNone) continue;
      // Locate the effect entry at the LCA: per-item if the call is
      // immediate, otherwise the aggregate entry of the LCA child on the
      // path to the call's region (scalar get_call_acc verbatim).
      const RegionId lca_id = view.rinfo_[lca].id;
      const RegionEntry* region = view.rinfo_[lca].table;
      if (call_region == lca_id) {
        for (const CallEffectEntry& eff : region->call_effects) {
          if (!eff.is_subregion && eff.call_item == call) {
            group_effect[gi] = &eff;
            break;
          }
        }
      } else {
        std::uint32_t child = dc;
        while (child != kNone && view.rinfo_[child].parent != lca) {
          child = view.rinfo_[child].parent;
        }
        if (child != kNone) {
          const RegionId child_id = view.rinfo_[child].id;
          for (const CallEffectEntry& eff : region->call_effects) {
            if (eff.is_subregion && eff.subregion == child_id) {
              group_effect[gi] = &eff;
              break;
            }
          }
        }
      }
    }

    for (std::uint32_t s = 0; s < n; ++s) {
      const std::uint32_t gi = slot_group_[s];
      if (gi == kNone) {  // No owning region: scalar answers RefMod.
        set_refmod(s);
        continue;
      }
      const std::uint32_t lca = group_lca[gi];
      if (lca == kNone) {
        set_refmod(s);
        continue;
      }
      const HliUnitView::ItemInfo& info = view.iteminfo_[slots_[s]];
      const ItemId mem_class =
          info.chain_off == kNone ? kNoItem
                                  : view.class_at_ancestor(info, lca);
      if (mem_class == kNoItem) {
        set_refmod(s);
        continue;
      }
      if (view.class_known(mem_class) &&
          (view.cinfo_[mem_class].flags & HliUnitView::kUnknownTarget) != 0) {
        set_refmod(s);
        continue;
      }
      const CallEffectEntry* effect = group_effect[gi];
      if (effect == nullptr || effect->unknown) {
        set_refmod(s);
        continue;
      }
      const bool in_ref = std::find(effect->ref_classes.begin(),
                                    effect->ref_classes.end(),
                                    mem_class) != effect->ref_classes.end();
      const bool in_mod = std::find(effect->mod_classes.begin(),
                                    effect->mod_classes.end(),
                                    mem_class) != effect->mod_classes.end();
      if (in_ref) rrow[s >> 6] |= std::uint64_t{1} << (s & 63);
      if (in_mod) mrow[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
  }
}

}  // namespace hli::query
