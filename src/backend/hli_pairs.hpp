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
  /// `view` may be null when the caller never asks (HLI off).  The object
  /// is reused across a function's blocks, so the matrix keeps its arena.
  HliPairs(const query::HliUnitView* view, bool batch,
           query::ConflictCache* cache = nullptr)
      : view_(view), batch_(batch), cache_(cache) {}

  /// Starts a new range insns[begin, end): loop-carried questions refer to
  /// `lcdd_loop`, and with batching the range's matrix is built.
  void prepare(const std::vector<Insn>& insns, std::size_t begin,
               std::size_t end, format::RegionId lcdd_loop = format::kNoRegion);

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
      return sa_ != query::BlockConflictMatrix::kNoSlot;
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

 private:
  const query::HliUnitView* view_;
  bool batch_;
  query::ConflictCache* cache_;
  format::RegionId loop_ = format::kNoRegion;
  std::vector<format::ItemId> mem_items_;
  std::vector<format::ItemId> call_items_;
  query::BlockConflictMatrix matrix_;
};

}  // namespace hli::backend
