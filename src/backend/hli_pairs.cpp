#include "backend/hli_pairs.hpp"

#include "support/telemetry.hpp"

namespace hli::backend {

namespace {

constexpr std::uint32_t kNoSlot = query::BlockConflictMatrix::kNoSlot;

const telemetry::Counter c_batch_pairs =
    telemetry::counter("query.batch_pairs");
const telemetry::Counter c_batch_fallbacks =
    telemetry::counter("query.batch_fallbacks");
const telemetry::Counter c_cache_hits = telemetry::counter("sched.cache_hits");
const telemetry::Counter c_cache_misses =
    telemetry::counter("sched.cache_misses");

}  // namespace

void HliPairs::prepare(const std::vector<Insn>& insns, std::size_t begin,
                       std::size_t end, format::RegionId lcdd_loop) {
  loop_ = lcdd_loop;
  if (!batch_ || view_ == nullptr) return;
  mem_items_.clear();
  call_items_.clear();
  for (std::size_t at = begin; at < end; ++at) {
    const Insn& insn = insns[at];
    if (is_memory_op(insn.op) && insn.mem.hli_item != format::kNoItem) {
      mem_items_.push_back(insn.mem.hli_item);
    } else if (insn.op == Opcode::Call && insn.hli_item != format::kNoItem) {
      call_items_.push_back(insn.hli_item);
    }
  }
  matrix_.build(*view_, mem_items_, call_items_, lcdd_loop);
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
  query::ConflictCache* cache = pairs_.cache_;
  if (cache != nullptr) {
    if (const auto hit = cache->lookup(a_, b_)) {
      c_cache_hits.add();
      return *hit != query::EquivAcc::None;
    }
    c_cache_misses.add();
    const query::EquivAcc answer = pairs_.view_->may_conflict(a_, b_);
    cache->insert(a_, b_, answer);
    return answer != query::EquivAcc::None;
  }
  return pairs_.view_->may_conflict(a_, b_) != query::EquivAcc::None;
}

bool HliPairs::MemPair::loop_carried() const {
  if (slotted()) return pairs_.matrix_.loop_carried(sa_, sb_);
  return !pairs_.view_->get_lcdd(pairs_.loop_, a_, b_).empty();
}

query::CallAcc HliPairs::call_acc(format::ItemId mem,
                                  format::ItemId call) const {
  if (matrix_.built()) {
    const std::uint32_t sm = matrix_.slot_of(mem);
    const std::uint32_t sc = matrix_.call_slot_of(call);
    if (sm != kNoSlot && sc != kNoSlot) {
      c_batch_pairs.add();
      return matrix_.call_acc(sm, sc);
    }
    c_batch_fallbacks.add();
  }
  return view_->get_call_acc(mem, call);
}

}  // namespace hli::backend
