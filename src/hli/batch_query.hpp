// Batched bitset dependence queries (the whole-block complement to the
// scalar HliUnitView pair queries).
//
// The scheduler's DDG construction asks O(n²) `may_conflict` questions
// per block; each scalar call re-walks the least-common-region chain and
// re-resolves both items' classes.  A BlockConflictMatrix does that
// resolution ONCE per block: given the distinct HLI items a scheduling
// block references, it
//   1. resolves each item's class once per *relevant region* (the LCA
//      closure of the items' owning regions),
//   2. precomputes a class×class conflict matrix per relevant region
//      (equivalence ∪ alias, exactly the scalar may_conflict tail),
//   3. materializes item×item answer planes as packed std::uint64_t
//      bitset rows — a conflict plane plus a definite plane, so the full
//      three-valued EquivAcc is reconstructed from two bit tests,
//   4. optionally folds in the LCDD table of one loop region (a
//      loop-carried plane: bit set iff `get_lcdd(loop, a, b)` would be
//      non-empty), and
//   5. resolves call REF/MOD effects once per (call, region) group into
//      ref/mod planes answering `get_call_acc` per bit pair.
//
// Contract: for every pair of slotted items the matrix answer is
// BIT-IDENTICAL to the scalar dense view (and therefore to the reference
// oracle) — `--verify-hli`'s audit and tests/hli/batch_query_test.cpp
// replay exhaustive pairs on all three implementations.  The back-end
// passes reach the matrix only through backend::HliPairs
// (backend/hli_pairs.hpp), which falls back to the scalar view for items
// the matrix did not slot and does all of the `query.batch_*` counting.
//
// Staleness follows the HliEntry generation counter exactly like the
// view: a matrix built from a view is valid until the entry is mutated;
// debug builds assert on use-after-maintenance.  The matrix owns its
// storage as a reusable arena — `build()` refills without reallocating,
// so a pass keeps one matrix object and rebuilds it per block.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "hli/query.hpp"

namespace hli::query {

class BlockConflictMatrix {
 public:
  /// Sentinel returned by slot_of/call_slot_of for unslotted items.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  BlockConflictMatrix() = default;

  /// Builds the planes for one block.  `mem_items` are the distinct
  /// memory items the block references (duplicates are deduplicated;
  /// first occurrence assigns the slot), `call_items` the call items the
  /// block's REF/MOD questions will name.  When `lcdd_loop` names a loop
  /// region of the entry, the loop-carried plane is filled from its LCDD
  /// table.  `view` must outlive the matrix; previous contents (and
  /// capacity) are reused.
  void build(const HliUnitView& view,
             const std::vector<format::ItemId>& mem_items,
             const std::vector<format::ItemId>& call_items = {},
             format::RegionId lcdd_loop = format::kNoRegion);

  /// Forgets the block (size() -> 0) but keeps the arena's capacity.
  void reset();

  [[nodiscard]] bool built() const { return view_ != nullptr; }
  /// True when the underlying entry was mutated after build(); a stale
  /// matrix must be rebuilt, same rule as HliUnitView::stale().
  [[nodiscard]] bool stale() const {
    return view_ != nullptr && view_->entry().generation != built_generation_;
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] std::size_t call_count() const { return call_slots_.size(); }
  /// Packed row width of the memory-item planes, in 64-bit words.
  [[nodiscard]] std::uint32_t words_per_row() const { return words_; }

  /// Slot of a memory item (kNoSlot when it was not in mem_items).
  [[nodiscard]] std::uint32_t slot_of(format::ItemId item) const {
    return lookup(slot_map_, slot_epoch_, overflow_, item);
  }
  /// Slot of a call item (kNoSlot when it was not in call_items).
  [[nodiscard]] std::uint32_t call_slot_of(format::ItemId item) const {
    return lookup(call_map_, call_epoch_, call_overflow_, item);
  }
  /// Item occupying a memory slot.
  [[nodiscard]] format::ItemId item_at(std::uint32_t slot) const {
    return slots_[slot];
  }

  // -- Pair answers (all O(1) bit tests) ----------------------------------

  /// Scalar-identical HLI_GetEquivAcc ∪ HLI_GetAlias answer for two
  /// memory slots: EquivAcc::None when the block can reorder them.
  [[nodiscard]] EquivAcc may_conflict(std::uint32_t a, std::uint32_t b) const {
    check_fresh();
    if (a >= size() || b >= size()) return EquivAcc::Maybe;
    if (!bit(conflict_, a, b)) return EquivAcc::None;
    return bit(definite_, a, b) ? EquivAcc::Definite : EquivAcc::Maybe;
  }

  /// `may_conflict(a, b) != EquivAcc::None` as a single bit test.
  [[nodiscard]] bool conflict(std::uint32_t a, std::uint32_t b) const {
    check_fresh();
    if (a >= size() || b >= size()) return true;  // Unslotted: stay safe.
    return bit(conflict_, a, b);
  }

  /// True iff `HliUnitView::get_lcdd(lcdd_loop, a, b)` would return a
  /// non-empty list (either direction).  Always false when build() got no
  /// loop region — callers needing distances still ask the scalar view,
  /// but only for pairs whose bit is set.
  [[nodiscard]] bool loop_carried(std::uint32_t a, std::uint32_t b) const {
    check_fresh();
    if (lcdd_.empty() || a >= size() || b >= size()) return false;
    return bit(lcdd_, a, b);
  }

  /// Scalar-identical HLI_GetCallAcc for a memory slot × call slot.
  [[nodiscard]] CallAcc call_acc(std::uint32_t mem, std::uint32_t call) const {
    check_fresh();
    if (mem >= size() || call >= call_count()) return CallAcc::RefMod;
    const bool ref = bit_at(call_ref_, call, mem);
    const bool mod = bit_at(call_mod_, call, mem);
    if (ref && mod) return CallAcc::RefMod;
    if (mod) return CallAcc::Mod;
    if (ref) return CallAcc::Ref;
    return CallAcc::None;
  }

  // -- Whole-row access (word-at-a-time scans) ----------------------------

  /// Packed conflict row of slot `a`: bit `b` of word `w` is
  /// `conflict(a, 64*w + b)`.  Valid until the next build()/reset().
  [[nodiscard]] const std::uint64_t* conflict_row(std::uint32_t a) const {
    check_fresh();
    return conflict_.data() + static_cast<std::size_t>(a) * words_;
  }
  /// One 64-slot word of slot `a`'s conflict row — callers AND it against
  /// their own occupancy masks to test one instruction against 64
  /// predecessors at once.
  [[nodiscard]] std::uint64_t conflict_word(std::uint32_t a,
                                            std::uint32_t word) const {
    check_fresh();
    return conflict_[static_cast<std::size_t>(a) * words_ + word];
  }

 private:
  /// (item, slot) pairs for item IDs past the direct-map range — only
  /// deliberately out-of-range probes land here, so a linear scan is fine.
  using SlotOverflow = std::vector<std::pair<format::ItemId, std::uint32_t>>;

  /// Direct-map lookup: the map entry is live only when its epoch stamp
  /// matches the current build's epoch (no per-build clearing).
  [[nodiscard]] std::uint32_t lookup(const std::vector<std::uint32_t>& map,
                                     const std::vector<std::uint32_t>& epochs,
                                     const SlotOverflow& overflow,
                                     format::ItemId item) const {
    if (view_ == nullptr) return kNoSlot;
    if (item < epochs.size() && epochs[item] == epoch_) return map[item];
    for (const auto& [id, slot] : overflow) {
      if (id == item) return slot;
    }
    return kNoSlot;
  }
  void assign_slots(std::vector<std::uint32_t>& map,
                    std::vector<std::uint32_t>& epochs, SlotOverflow& overflow,
                    const std::vector<format::ItemId>& items,
                    std::vector<format::ItemId>& slots);

  [[nodiscard]] bool bit(const std::vector<std::uint64_t>& plane,
                         std::uint32_t a, std::uint32_t b) const {
    return bit_at(plane, a, b);
  }
  [[nodiscard]] bool bit_at(const std::vector<std::uint64_t>& plane,
                            std::uint32_t row, std::uint32_t col) const {
    return (plane[static_cast<std::size_t>(row) * words_ + (col >> 6)] >>
            (col & 63)) & 1u;
  }
  void set_bit(std::vector<std::uint64_t>& plane, std::uint32_t row,
               std::uint32_t col) {
    plane[static_cast<std::size_t>(row) * words_ + (col >> 6)] |=
        std::uint64_t{1} << (col & 63);
  }

  void fill_conflict_planes();
  void fill_lcdd_plane(format::RegionId lcdd_loop);
  void fill_call_planes();

  void check_fresh() const {
    assert(!stale() && "BlockConflictMatrix queried after the HliEntry was "
                       "mutated; rebuild after maintenance");
  }

  const HliUnitView* view_ = nullptr;
  std::uint64_t built_generation_ = 0;
  std::uint32_t words_ = 0;

  // Slot assignment (first-occurrence order) + epoch-stamped direct maps
  // over the view's item space (O(1) assignment and lookup, no sorting;
  // a bumped epoch invalidates every previous block's stamps at once).
  std::vector<format::ItemId> slots_;
  std::vector<format::ItemId> call_slots_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> slot_map_;
  std::vector<std::uint32_t> slot_epoch_;
  std::vector<std::uint32_t> call_map_;
  std::vector<std::uint32_t> call_epoch_;
  SlotOverflow overflow_;
  SlotOverflow call_overflow_;

  // Answer planes, each size() rows × words_ words (call planes are
  // call_count() rows over memory-slot columns).
  std::vector<std::uint64_t> conflict_;
  std::vector<std::uint64_t> definite_;
  std::vector<std::uint64_t> lcdd_;
  std::vector<std::uint64_t> call_ref_;
  std::vector<std::uint64_t> call_mod_;

  // Build-time arena, reused across build() calls.  The pair fill loop
  // reads: slot a,b -> region groups -> relevant-LCA index -> per-slot
  // class indices -> one byte of the class×class plane.
  std::vector<std::uint32_t> slot_dense_;  ///< Dense owning region per slot.
  std::vector<std::uint32_t> slot_group_;  ///< Region-group index per slot.
  std::vector<std::uint32_t> regions_;     ///< Distinct dense regions (groups).
  std::vector<std::uint32_t> rel_;         ///< Distinct pairwise-LCA regions.
  std::vector<std::uint32_t> lca_rel_;     ///< group×group -> rel_ index.
  std::vector<std::uint32_t> class_idx_;   ///< rel×slot -> class-list index.
  std::vector<std::size_t> rel_off_;       ///< rel -> class_bits_ offset.
  std::vector<std::uint32_t> rel_stride_;  ///< rel -> class count.
  std::vector<std::uint8_t> class_bits_;   ///< Per-rel class×class planes.
  std::vector<format::ItemId> classes_;    ///< Scratch: one rel's classes.
  std::vector<format::ItemId> slot_class_; ///< Scratch: per-slot class.
  std::vector<std::uint8_t> class_status_; ///< Scratch: per-class category.
  std::vector<const std::uint8_t*> row_plane_;   ///< Scratch: group -> class row.
  std::vector<const std::uint32_t*> row_cidx_;   ///< Scratch: group -> idx row.
  std::vector<std::uint32_t> group_lca_;   ///< Scratch: call-plane LCA cache.
  std::vector<const format::CallEffectEntry*> group_effect_;
  std::vector<std::uint32_t> match_a_;     ///< Scratch: LCDD src slot list.
  std::vector<std::uint32_t> match_b_;     ///< Scratch: LCDD dst slot list.
};

}  // namespace hli::query
