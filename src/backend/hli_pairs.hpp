// The back-end passes' one HLI pair-query entry point.  CSE, LICM, both
// scheduling passes and SWP ask every memory/memory conflict, loop-carried
// and memory/call REF/MOD question through an HliPairs.
//
// With batching on, prepare() collects the memory and call items of one
// instruction range (a block or a loop body) and builds a
// query::BlockConflictMatrix over them.  A pair whose items both have a
// slot is then answered by bit tests and counted as `query.batch_pairs`;
// any other pair goes to the scalar view and counts as
// `query.batch_fallbacks`.  With batching off no matrix is built and every
// answer goes straight to the scalar view, uncounted.  Both paths give the
// same answers (the matrix's bit-identity contract), so the passes' RTL
// and statistics do not depend on the choice; the scalar path is the
// reference tests/hli/batch_query_test.cpp checks the batched one against.
//
// The scheduler asks a whole row at a time: conflict_row and call_acc_row
// answer one item against every position of a caller's bit row, given
// each position's item and slot.  Batched, a memory answer is bit
// `slot[i]` of the matrix's conflict row of the fixed item; scalar, the
// row asks the view pair by pair in ascending position.  A row is counted
// exactly as one pair call per asked position, so the choice of form
// changes no counter.
//
// An optional ConflictCache memoizes the scalar `may_conflict` answers
// (counted as `sched.cache_hits` / `sched.cache_misses`); only the
// scheduler passes one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/rtl.hpp"
#include "hli/batch_query.hpp"
#include "hli/query.hpp"

namespace hli::backend {

class HliPairs {
 public:
  /// The slot of an item the matrix does not hold.
  static constexpr std::uint32_t kNoSlot = query::BlockConflictMatrix::kNoSlot;

  /// `view` may be null when the caller never asks (HLI off).  The object
  /// is reused across a function's blocks, so the matrix keeps its arena.
  HliPairs(const query::HliUnitView* view, bool batch,
           query::ConflictCache* cache = nullptr)
      : view_(view), batch_(batch), cache_(cache) {}

  /// Re-targets the object at another view and choice of batching and
  /// cache, as if newly constructed; the matrix keeps its arena.
  void bind(const query::HliUnitView* view, bool batch,
            query::ConflictCache* cache);

  /// Starts a new range insns[begin, end): loop-carried questions refer to
  /// `lcdd_loop`, and with batching the range's matrix is built.
  void prepare(const std::vector<Insn>& insns, std::size_t begin,
               std::size_t end, format::RegionId lcdd_loop = format::kNoRegion);

  /// prepare() from the memory and call items the range's instructions
  /// name, in order (for a caller that walks the range itself).
  void prepare(const std::vector<format::ItemId>& mem_items,
               const std::vector<format::ItemId>& call_items,
               format::RegionId lcdd_loop = format::kNoRegion);

  /// One memory/memory item pair, resolved and counted once; both of its
  /// answers come from the same source.
  class MemPair {
   public:
    /// may_conflict(a, b) != EquivAcc::None.
    [[nodiscard]] bool conflict() const;
    /// get_lcdd(lcdd_loop, a, b) is non-empty.
    [[nodiscard]] bool loop_carried() const;

   private:
    friend class HliPairs;
    MemPair(const HliPairs& pairs, format::ItemId a, format::ItemId b,
            std::uint32_t sa, std::uint32_t sb)
        : pairs_(pairs), a_(a), b_(b), sa_(sa), sb_(sb) {}
    [[nodiscard]] bool slotted() const {
      return sa_ != kNoSlot;
    }
    const HliPairs& pairs_;
    format::ItemId a_;
    format::ItemId b_;
    std::uint32_t sa_;
    std::uint32_t sb_;
  };

  [[nodiscard]] MemPair mem_pair(format::ItemId a, format::ItemId b) const;

  /// HLI_GetCallAcc for a memory item against a call item.
  [[nodiscard]] query::CallAcc call_acc(format::ItemId mem,
                                        format::ItemId call) const;

  /// Matrix slot of a memory / call item of the prepared range; kNoSlot
  /// without a matrix or for an item the range did not name.
  [[nodiscard]] std::uint32_t mem_slot(format::ItemId item) const {
    return matrix_.slot_of(item);
  }
  [[nodiscard]] std::uint32_t call_slot(format::ItemId item) const {
    return matrix_.call_slot_of(item);
  }

  /// A caller's positions: position i names item `items[i]`, whose slot
  /// (mem_slot or call_slot, by its kind) is `slots[i]`.
  struct Positions {
    const format::ItemId* items;
    const std::uint32_t* slots;
  };

  /// Row form of mem_pair(items[i], b).conflict() over the positions set
  /// in `ask` (`words` words): writes those words of `row` with bit i set
  /// for each asked i that may conflict with `b` (slot `b_slot`).
  void conflict_row(Positions at, format::ItemId b, std::uint32_t b_slot,
                    const std::uint64_t* ask, std::size_t words,
                    std::uint64_t* row) const;

  /// Row form of call_acc() over the positions set in `ask`: with
  /// `fixed_is_call`, position i is a memory item against the call item
  /// `fixed`; otherwise a call item against the memory item `fixed`.
  /// Writes `words` words of `mod` (the call may write the location) and
  /// of `touch` (it may read or write it).
  void call_acc_row(Positions at, format::ItemId fixed,
                    std::uint32_t fixed_slot, bool fixed_is_call,
                    const std::uint64_t* ask, std::size_t words,
                    std::uint64_t* mod, std::uint64_t* touch) const;

 private:
  /// The scalar view's may_conflict, through the cache when there is one.
  [[nodiscard]] bool scalar_conflict(format::ItemId a, format::ItemId b) const;
  /// call_acc() with both slots known (kNoSlot when unslotted).
  [[nodiscard]] query::CallAcc call_acc(format::ItemId mem, std::uint32_t sm,
                                        format::ItemId call,
                                        std::uint32_t sc) const;

  const query::HliUnitView* view_;
  bool batch_;
  query::ConflictCache* cache_;
  format::RegionId loop_ = format::kNoRegion;
  std::vector<format::ItemId> mem_items_;
  std::vector<format::ItemId> call_items_;
  query::BlockConflictMatrix matrix_;
};

}  // namespace hli::backend
