#include "backend/hli_pairs.hpp"

#include <algorithm>
#include <bit>

#include "support/telemetry.hpp"

namespace hli::backend {

namespace {

constexpr std::uint32_t kNoSlot = HliPairs::kNoSlot;

const telemetry::Counter c_batch_pairs =
    telemetry::counter("query.batch_pairs");
const telemetry::Counter c_batch_fallbacks =
    telemetry::counter("query.batch_fallbacks");
const telemetry::Counter c_cache_hits = telemetry::counter("sched.cache_hits");
const telemetry::Counter c_cache_misses =
    telemetry::counter("sched.cache_misses");

/// Calls `fn(i)` for every bit i set in words [0, words) of `bits`, in
/// ascending order.
template <typename Fn>
void for_each_bit(const std::uint64_t* bits, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

}  // namespace

void HliPairs::bind(const query::HliUnitView* view, bool batch,
                    query::ConflictCache* cache) {
  view_ = view;
  batch_ = batch;
  cache_ = cache;
  loop_ = format::kNoRegion;
  matrix_.reset();
}

void HliPairs::prepare(const std::vector<format::ItemId>& mem_items,
                       const std::vector<format::ItemId>& call_items,
                       format::RegionId lcdd_loop) {
  loop_ = lcdd_loop;
  if (!batch_ || view_ == nullptr) return;
  matrix_.build(*view_, mem_items, call_items, lcdd_loop);
}

void HliPairs::prepare(const std::vector<Insn>& insns, std::size_t begin,
                       std::size_t end, format::RegionId lcdd_loop) {
  mem_items_.clear();
  call_items_.clear();
  if (batch_ && view_ != nullptr) {
    for (std::size_t at = begin; at < end; ++at) {
      const Insn& insn = insns[at];
      if (is_memory_op(insn.op) && insn.mem.hli_item != format::kNoItem) {
        mem_items_.push_back(insn.mem.hli_item);
      } else if (insn.op == Opcode::Call &&
                 insn.hli_item != format::kNoItem) {
        call_items_.push_back(insn.hli_item);
      }
    }
  }
  prepare(mem_items_, call_items_, lcdd_loop);
}

HliPairs::MemPair HliPairs::mem_pair(format::ItemId a, format::ItemId b) const {
  if (matrix_.built()) {
    const std::uint32_t sa = matrix_.slot_of(a);
    const std::uint32_t sb = matrix_.slot_of(b);
    if (sa != kNoSlot && sb != kNoSlot) {
      c_batch_pairs.add();
      return {*this, a, b, sa, sb};
    }
    c_batch_fallbacks.add();
  }
  return {*this, a, b, kNoSlot, kNoSlot};
}

bool HliPairs::MemPair::conflict() const {
  if (slotted()) return pairs_.matrix_.conflict(sa_, sb_);
  return pairs_.scalar_conflict(a_, b_);
}

bool HliPairs::scalar_conflict(format::ItemId a, format::ItemId b) const {
  if (cache_ != nullptr) {
    if (const auto hit = cache_->lookup(a, b)) {
      c_cache_hits.add();
      return *hit != query::EquivAcc::None;
    }
    c_cache_misses.add();
    const query::EquivAcc answer = view_->may_conflict(a, b);
    cache_->insert(a, b, answer);
    return answer != query::EquivAcc::None;
  }
  return view_->may_conflict(a, b) != query::EquivAcc::None;
}

bool HliPairs::MemPair::loop_carried() const {
  if (slotted()) return pairs_.matrix_.loop_carried(sa_, sb_);
  return !pairs_.view_->get_lcdd(pairs_.loop_, a_, b_).empty();
}

query::CallAcc HliPairs::call_acc(format::ItemId mem,
                                  format::ItemId call) const {
  return call_acc(mem, matrix_.slot_of(mem), call, matrix_.call_slot_of(call));
}

query::CallAcc HliPairs::call_acc(format::ItemId mem, std::uint32_t sm,
                                  format::ItemId call, std::uint32_t sc) const {
  if (matrix_.built()) {
    if (sm != kNoSlot && sc != kNoSlot) {
      c_batch_pairs.add();
      return matrix_.call_acc(sm, sc);
    }
    c_batch_fallbacks.add();
  }
  return view_->get_call_acc(mem, call);
}

void HliPairs::conflict_row(Positions at, format::ItemId b,
                            std::uint32_t b_slot, const std::uint64_t* ask,
                            std::size_t words, std::uint64_t* row) const {
  std::fill(row, row + words, std::uint64_t{0});
  if (!matrix_.built()) {
    for_each_bit(ask, words, [&](std::size_t i) {
      if (scalar_conflict(at.items[i], b)) {
        row[i >> 6] |= std::uint64_t{1} << (i & 63);
      }
    });
    return;
  }
  const std::uint64_t* answers =
      b_slot != kNoSlot ? matrix_.conflict_row(b_slot) : nullptr;
  std::uint64_t pairs = 0;
  std::uint64_t fallbacks = 0;
  for_each_bit(ask, words, [&](std::size_t i) {
    const std::uint32_t s = at.slots[i];
    bool conflict = false;
    if (answers != nullptr && s != kNoSlot) {
      ++pairs;
      conflict = ((answers[s >> 6] >> (s & 63)) & 1u) != 0;
    } else {
      ++fallbacks;
      conflict = scalar_conflict(at.items[i], b);
    }
    if (conflict) row[i >> 6] |= std::uint64_t{1} << (i & 63);
  });
  c_batch_pairs.add(pairs);
  c_batch_fallbacks.add(fallbacks);
}

void HliPairs::call_acc_row(Positions at, format::ItemId fixed,
                            std::uint32_t fixed_slot, bool fixed_is_call,
                            const std::uint64_t* ask, std::size_t words,
                            std::uint64_t* mod, std::uint64_t* touch) const {
  std::fill(mod, mod + words, std::uint64_t{0});
  std::fill(touch, touch + words, std::uint64_t{0});
  for_each_bit(ask, words, [&](std::size_t i) {
    const query::CallAcc acc =
        fixed_is_call
            ? call_acc(at.items[i], at.slots[i], fixed, fixed_slot)
            : call_acc(fixed, fixed_slot, at.items[i], at.slots[i]);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (acc == query::CallAcc::Mod || acc == query::CallAcc::RefMod) {
      mod[i >> 6] |= bit;
    }
    if (acc != query::CallAcc::None) touch[i >> 6] |= bit;
  });
}

}  // namespace hli::backend
