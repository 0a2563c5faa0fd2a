// The HLI query interface (paper §3.2.2): back-end passes retrieve the
// stored information exclusively through these functions, which keeps the
// interface identical across back-end compilers.
//
// HliUnitView indexes one (typically re-read) HliEntry:
//   * HLI_GetEquivAcc  — are two memory items (possibly) the same location
//                        within the current iteration context?
//   * HLI_GetAlias     — alias-table relation of the two items' classes.
//   * HLI_GetLCDD      — loop-carried dependences between two items w.r.t.
//                        an enclosing loop region.
//   * HLI_GetCallAcc   — REF/MOD effect of a call item on a memory item.
//   * HLI_GetRegion    — structural queries (owning region, enclosing
//                        loops, region kind/scope).
//
// The view is a DENSE precomputed index: at construction every item,
// class, and region ID is remapped into contiguous arrays, the region
// tree is Euler-toured (pre/post order intervals), and the class-parent
// chain of every item is flattened into an ancestor table.  Afterwards
// region_encloses/common_region/innermost_loop are O(1) array compares
// and class_of_at is a single indexed lookup — the scheduler issues
// O(n²) may_conflict queries per block, so this path must not chase
// hash maps (cf. the sparse-representation argument in Tavares et al.).
// The pair queries are defined inline below: per-item and per-class facts
// are packed into single structs so one lookup touches one cache line.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hli/format.hpp"

namespace hli::query {

class BlockConflictMatrix;

using format::HliEntry;
using format::ItemId;
using format::RegionId;

/// Three-valued answer used by the equivalence/alias queries.
enum class EquivAcc : std::uint8_t { None, Maybe, Definite };

/// Call side effects on a memory item.
enum class CallAcc : std::uint8_t { None, Ref, Mod, RefMod };

struct LcddResult {
  format::DepType type = format::DepType::Maybe;
  std::optional<std::int64_t> distance;
  /// True when the dependence runs from `a` (earlier iteration) to `b`.
  bool forward = true;
};

/// The largest item/class ID `entry`'s tables name, and at least
/// next_id.  An HliUnitView sizes its dense item arrays one past it.
[[nodiscard]] ItemId max_id_of(const HliEntry& entry);

class HliUnitView {
 public:
  /// Builds the index; `entry` must outlive the view.  Rebuild the view
  /// after any maintenance mutation of the entry — debug builds assert
  /// (via the HliEntry generation counter) that a stale view is never
  /// queried.
  explicit HliUnitView(const HliEntry& entry);

  [[nodiscard]] const HliEntry& entry() const { return *entry_; }

  /// True when the underlying entry was mutated (maintenance) after this
  /// view was built; a stale view must be rebuilt before further queries.
  [[nodiscard]] bool stale() const {
    return entry_->generation != built_generation_;
  }

  // -- Structural queries (HLI_GetRegion family) --------------------------

  /// Region owning an item: for memory items, the region whose class lists
  /// it; for calls, the region holding its per-item call-effect entry.
  [[nodiscard]] RegionId region_of(ItemId item) const;
  [[nodiscard]] RegionId parent_region(RegionId region) const;
  /// Innermost loop region enclosing `region` (or `region` itself if loop);
  /// kNoRegion when none.
  [[nodiscard]] RegionId innermost_loop(RegionId region) const;
  /// Least common ancestor region of two items' regions.
  [[nodiscard]] RegionId common_region(ItemId a, ItemId b) const;
  /// True when `outer` encloses (or equals) `inner`.
  [[nodiscard]] bool region_encloses(RegionId outer, RegionId inner) const;

  /// Class representing `item` at `region` (which must enclose the item's
  /// own region); kNoItem when unknown.
  [[nodiscard]] ItemId class_of_at(ItemId item, RegionId region) const;

  // -- The paper's query functions ----------------------------------------

  /// HLI_GetEquivAcc: may the two memory items access the same location in
  /// the same iteration of all their common loops?  Definite only when
  /// their least-common-region class is a single definite class.
  [[nodiscard]] EquivAcc get_equiv_acc(ItemId a, ItemId b) const;

  /// HLI_GetAlias: alias-table relation between the items' classes at
  /// their least common region (excludes same-class equivalence).
  [[nodiscard]] EquivAcc get_alias(ItemId a, ItemId b) const;

  /// Combined "may these two references conflict?" — the disambiguation
  /// answer the instruction scheduler consumes (Figure 5): same class,
  /// aliased classes, or unknown targets.
  [[nodiscard]] EquivAcc may_conflict(ItemId a, ItemId b) const;

  /// HLI_GetLCDD: loop-carried dependences between the items' classes at
  /// loop region `loop` (must enclose both items).
  [[nodiscard]] std::vector<LcddResult> get_lcdd(RegionId loop, ItemId a,
                                                 ItemId b) const;

  /// HLI_GetCallAcc: effect of call item `call` on memory item `mem`
  /// (Figure 4's CSE helper).  Conservatively RefMod when the callee's
  /// effects are unknown.
  [[nodiscard]] CallAcc get_call_acc(ItemId mem, ItemId call) const;

  /// True when class `cls` of loop region `loop` provably covers disjoint
  /// locations in distinct iterations: the class is variant (strided with
  /// the IV), its targets are known, and the builder's section analysis
  /// recorded NO carried dependence of the class on itself (the builder
  /// emits a self LCDD entry for every written variant class whose
  /// footprint may recur, so absence is a proof, not missing data).  A
  /// same-class store/load pair in such a class carries no loop
  /// dependence even though may_conflict() answers Definite for it
  /// within an iteration.
  [[nodiscard]] bool class_iteration_disjoint(RegionId loop,
                                              ItemId cls) const;

  /// One past the largest item/class ID the dense arrays cover; every ID
  /// at or beyond this answers Maybe.  Batch consumers (and the audit)
  /// use it to size their own per-item tables.
  [[nodiscard]] std::size_t item_limit() const { return iteminfo_.size(); }

 private:
  /// The batch layer (hli/batch_query.hpp) builds per-block conflict
  /// bitmatrices by sequentially scanning these tables; it must see the
  /// same per-item/per-class facts the scalar queries see.
  friend class BlockConflictMatrix;
  /// Sentinel for "no dense index".
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Per-region precomputed facts, indexed by dense region index.
  struct RegionInfo {
    RegionId id = format::kNoRegion;
    RegionId parent_id = format::kNoRegion;
    std::uint32_t parent = kNone;  ///< Dense index of the parent.
    std::uint32_t pre = 0;         ///< Euler-tour preorder number.
    std::uint32_t post = 0;        ///< Euler-tour postorder bound.
    std::uint32_t depth = 0;       ///< Root depth 0.
    /// Nearest enclosing loop (self-inclusive), raw ID; kNoRegion if none.
    RegionId nearest_loop = format::kNoRegion;
    /// Stable: the regions vector of an HliEntry is never resized by
    /// maintenance, only its inner tables change.
    const format::RegionEntry* table = nullptr;
  };

  /// Per-item facts packed so the pair-query hot path touches one line.
  struct ItemInfo {
    std::uint32_t dense = kNone;      ///< Dense owning region; kNone.
    std::uint32_t chain_off = kNone;  ///< Offset into chain_pool_; kNone.
    std::uint32_t chain_len = 0;
  };

  /// Per-class facts, likewise packed; indexed by raw class ID.
  struct ClassInfo {
    std::uint8_t flags = 0;
    RegionId region = format::kNoRegion;   ///< Defining region.
    std::uint32_t alias_off = kNone;       ///< Offset into alias_pool_.
    std::uint32_t alias_len = 0;
  };

  [[nodiscard]] std::uint32_t dense_region(RegionId id) const {
    return id < region_index_.size() ? region_index_[id] : kNone;
  }
  /// `outer`/`inner` are dense indices; O(1) Euler interval compare.
  [[nodiscard]] bool dense_encloses(std::uint32_t outer,
                                    std::uint32_t inner) const {
    return rinfo_[outer].pre <= rinfo_[inner].pre &&
           rinfo_[inner].post <= rinfo_[outer].post;
  }
  /// Dense LCA of two dense region indices (climb with interval checks).
  [[nodiscard]] std::uint32_t dense_lca(std::uint32_t a,
                                        std::uint32_t b) const {
    std::uint32_t r = a;
    while (r != kNone && !dense_encloses(r, b)) r = rinfo_[r].parent;
    return r;
  }
  [[nodiscard]] bool class_known(ItemId id) const {
    return id < cinfo_.size() && (cinfo_[id].flags & kIsClass) != 0;
  }
  /// Class representing `item` at ancestor region `d_anc` when the item's
  /// own dense region `d_item` is already known and `d_anc` encloses it —
  /// the pre-validated core of class_of_at.  `item` must be within the
  /// dense arrays.
  [[nodiscard]] ItemId class_at_ancestor(const ItemInfo& info,
                                         std::uint32_t d_anc) const {
    if (info.chain_off == kNone) return format::kNoItem;
    const std::uint32_t lifts = rinfo_[info.dense].depth - rinfo_[d_anc].depth;
    if (lifts >= info.chain_len) return format::kNoItem;
    return chain_pool_[info.chain_off + lifts];
  }
  /// Alias-table relation of two distinct classes at dense LCA `lca`
  /// (the shared tail of get_alias / may_conflict).
  [[nodiscard]] EquivAcc alias_of_classes(ItemId ca, ItemId cb,
                                          std::uint32_t lca) const;
  void check_fresh() const {
    assert(!stale() && "HliUnitView queried after the HliEntry was mutated; "
                       "rebuild the view after maintenance");
  }

  static constexpr std::uint8_t kIsClass = 1u << 0;
  static constexpr std::uint8_t kDefinite = 1u << 1;
  static constexpr std::uint8_t kUnknownTarget = 1u << 2;

  const HliEntry* entry_;
  std::uint64_t built_generation_ = 0;

  // Region side: raw ID -> dense index, plus per-dense-region facts.
  std::vector<std::uint32_t> region_index_;
  std::vector<RegionInfo> rinfo_;

  // Item side, indexed by raw item ID (items/classes share one ID space):
  std::vector<RegionId> item_region_;  ///< Owning region; kNoRegion.
  std::vector<ItemInfo> iteminfo_;
  /// Flattened lifted-class chains: chain_pool_[off + k] is the class
  /// representing the item at its region's k-th ancestor (k = 0 is the
  /// item's own region).
  std::vector<ItemId> chain_pool_;

  // Class side, indexed by raw class ID:
  std::vector<ClassInfo> cinfo_;
  /// Per-class sorted list of alias partners within its defining region.
  std::vector<ItemId> alias_pool_;
};

// The pair queries are inline: the scheduler (and the microbenchmark)
// call them in O(n²) loops, so the compiler should hoist the array base
// pointers and fold the shared prologue into the caller.

inline EquivAcc HliUnitView::get_equiv_acc(ItemId a, ItemId b) const {
  check_fresh();
  if (a >= iteminfo_.size() || b >= iteminfo_.size()) {
    return EquivAcc::Maybe;  // Unmapped: stay safe.
  }
  const ItemInfo& ia = iteminfo_[a];
  const ItemInfo& ib = iteminfo_[b];
  if (ia.dense == kNone || ib.dense == kNone) return EquivAcc::Maybe;
  const std::uint32_t lca = dense_lca(ia.dense, ib.dense);
  if (lca == kNone) return EquivAcc::Maybe;
  const ItemId ca = class_at_ancestor(ia, lca);
  const ItemId cb = class_at_ancestor(ib, lca);
  if (ca == format::kNoItem || cb == format::kNoItem) return EquivAcc::Maybe;
  if (ca != cb) return EquivAcc::None;
  if (!class_known(ca)) return EquivAcc::Maybe;
  return (cinfo_[ca].flags & kDefinite) != 0 ? EquivAcc::Definite
                                             : EquivAcc::Maybe;
}

inline EquivAcc HliUnitView::get_alias(ItemId a, ItemId b) const {
  check_fresh();
  if (a >= iteminfo_.size() || b >= iteminfo_.size()) return EquivAcc::Maybe;
  const ItemInfo& ia = iteminfo_[a];
  const ItemInfo& ib = iteminfo_[b];
  if (ia.dense == kNone || ib.dense == kNone) return EquivAcc::Maybe;
  const std::uint32_t lca = dense_lca(ia.dense, ib.dense);
  if (lca == kNone) return EquivAcc::Maybe;
  const ItemId ca = class_at_ancestor(ia, lca);
  const ItemId cb = class_at_ancestor(ib, lca);
  if (ca == format::kNoItem || cb == format::kNoItem) return EquivAcc::Maybe;
  if (ca == cb) return EquivAcc::None;  // Equivalence, not aliasing.
  return alias_of_classes(ca, cb, lca);
}

inline EquivAcc HliUnitView::may_conflict(ItemId a, ItemId b) const {
  // Fused get_equiv_acc + get_alias: one LCA walk and one class lookup
  // per item instead of redoing both in each sub-query — this is the
  // scheduler's O(n²)-per-block entry point.
  check_fresh();
  if (a >= iteminfo_.size() || b >= iteminfo_.size()) return EquivAcc::Maybe;
  const ItemInfo& ia = iteminfo_[a];
  const ItemInfo& ib = iteminfo_[b];
  if (ia.dense == kNone || ib.dense == kNone) return EquivAcc::Maybe;
  const std::uint32_t lca = dense_lca(ia.dense, ib.dense);
  if (lca == kNone) return EquivAcc::Maybe;
  const ItemId ca = class_at_ancestor(ia, lca);
  const ItemId cb = class_at_ancestor(ib, lca);
  if (ca == format::kNoItem || cb == format::kNoItem) return EquivAcc::Maybe;
  if (ca == cb) {
    if (!class_known(ca)) return EquivAcc::Maybe;
    return (cinfo_[ca].flags & kDefinite) != 0 ? EquivAcc::Definite
                                               : EquivAcc::Maybe;
  }
  // Equivalence answered None; the alias table decides.
  return alias_of_classes(ca, cb, lca);
}

/// Pairwise memo for `may_conflict` answers, keyed on the unordered item
/// pair (the relation is symmetric).  The scheduler consults the view for
/// every memory pair of every block and again in the post-RA pass; the
/// cache lets repeated DDG edge tests over one function hit precomputed
/// answers.  Only valid for one (entry, generation); clear on rebuild.
class ConflictCache {
 public:
  [[nodiscard]] std::optional<EquivAcc> lookup(ItemId a, ItemId b) const {
    const auto it = map_.find(key(a, b));
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  void insert(ItemId a, ItemId b, EquivAcc answer) {
    map_.emplace(key(a, b), answer);
  }
  void clear() { map_.clear(); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  [[nodiscard]] static std::uint64_t key(ItemId a, ItemId b) {
    const std::uint64_t lo = a < b ? a : b;
    const std::uint64_t hi = a < b ? b : a;
    return (hi << 32) | lo;
  }
  std::unordered_map<std::uint64_t, EquivAcc> map_;
};

}  // namespace hli::query
