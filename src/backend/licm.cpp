#include "backend/licm.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "backend/hli_pairs.hpp"
#include "support/telemetry.hpp"

namespace hli::backend {

namespace {
const telemetry::Counter c_pure_hoisted =
    telemetry::counter("licm.pure_hoisted");
const telemetry::Counter c_loads_hoisted =
    telemetry::counter("licm.loads_hoisted");
const telemetry::Counter c_loads_blocked_native =
    telemetry::counter("licm.loads_blocked_native");
const telemetry::Counter c_loads_blocked_hli =
    telemetry::counter("licm.loads_blocked_hli");
}  // namespace

void LicmStats::record_telemetry() const {
  c_pure_hoisted.add(pure_hoisted);
  c_loads_hoisted.add(loads_hoisted);
  c_loads_blocked_native.add(loads_blocked_native);
  c_loads_blocked_hli.add(loads_blocked_hli);
}

namespace {

[[nodiscard]] bool hoistable_pure(Opcode op) {
  switch (op) {
    case Opcode::LoadImm:
    case Opcode::LoadAddr:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Neg:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::IntToFp:
      return true;
    default:
      return false;  // Div/Rem may trap; comparisons feed branches locally.
  }
}

/// LICM over every innermost loop of one function.  Hoisting only
/// reorders instructions, so each register's definition count over the
/// function, counted once up front, holds for the whole pass; and a
/// rewrite moves instructions only within its own loop's span, which
/// holds no other loop note, so one walk of the spans serves every loop.
class FunctionLicm {
 public:
  FunctionLicm(RtlFunction& func, const LicmOptions& options, LicmStats& stats)
      : func_(func), options_(options), stats_(stats),
        pairs_(options.use_hli ? options.view : nullptr,
               options.batch_queries),
        defs_(static_cast<std::size_t>(func.num_regs), 0),
        in_loop_(static_cast<std::size_t>(func.num_regs), 0) {
    for (const Insn& insn : func.insns) {
      const Reg rd = def_of(insn);
      if (rd != kNoReg) ++defs_[static_cast<std::size_t>(rd)];
    }
  }

  void run(const LoopSpan& loop) {
    beg_ = loop.beg;
    end_ = loop.end;
    // The loop-carried answers come from this loop's LCDD table.
    pairs_.prepare(func_.insns, beg_ + 1, end_, loop_region());
    collect();
    // Iterate: hoisting one insn can make another invariant.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = beg_ + 1; i < end_; ++i) {
        if (hoisted(i)) continue;
        const Insn& insn = func_.insns[i];
        if (hoistable_pure(insn.op)) {
          if (invariant_inputs(insn) && single_def(insn.rd)) {
            hoist(i);
            ++stats_.pure_hoisted;
            changed = true;
          }
        } else if (insn.op == Opcode::Load) {
          if (invariant_inputs(insn) && single_def(insn.rd) &&
              no_conflicting_writes(insn, i)) {
            hoist(i);
            ++stats_.loads_hoisted;
            if (options_.on_load_hoisted &&
                insn.mem.hli_item != format::kNoItem) {
              options_.on_load_hoisted(insn.mem.hli_item, loop_region());
            }
            changed = true;
          }
        }
      }
    }
    rewrite();
  }

 private:
  [[nodiscard]] format::RegionId loop_region() const {
    return func_.insns[beg_].loop_region;
  }

  /// Marks the loop's definitions and lists its stores and calls.
  void collect() {
    ++loop_stamp_;
    hoisted_.assign(end_ - beg_, 0);
    hoisted_count_ = 0;
    writes_.clear();
    for (std::size_t i = beg_ + 1; i < end_; ++i) {
      const Insn& insn = func_.insns[i];
      const Reg rd = def_of(insn);
      if (rd != kNoReg) in_loop_[static_cast<std::size_t>(rd)] = loop_stamp_;
      if (insn.op == Opcode::Store || insn.op == Opcode::Call) {
        writes_.push_back(i);
      }
    }
  }

  [[nodiscard]] bool hoisted(std::size_t i) const {
    return hoisted_[i - beg_] != 0;
  }

  void hoist(std::size_t i) {
    hoisted_[i - beg_] = 1;
    ++hoisted_count_;
    // single_def held: this was the register's one definition in the loop.
    in_loop_[static_cast<std::size_t>(func_.insns[i].rd)] = 0;
  }

  [[nodiscard]] bool invariant_inputs(const Insn& insn) const {
    bool invariant = true;
    for_each_read(insn, [&](Reg r) {
      if (in_loop_[static_cast<std::size_t>(r)] == loop_stamp_) {
        invariant = false;
      }
    });
    return invariant;
  }

  /// The register must be defined exactly once in the function, so the
  /// definition is this loop's one (our lowering's expression temps) and
  /// moving it cannot clobber an outer value early.
  [[nodiscard]] bool single_def(Reg rd) const {
    return rd != kNoReg && defs_[static_cast<std::size_t>(rd)] == 1;
  }

  [[nodiscard]] bool no_conflicting_writes(const Insn& load,
                                           std::size_t load_pos) {
    for (const std::size_t i : writes_) {
      const Insn& insn = func_.insns[i];
      if (insn.op == Opcode::Store) {
        bool conflict = gcc_may_conflict(load.mem, insn.mem);
        if (conflict) ++stats_.loads_blocked_native;
        if (conflict && options_.use_hli && options_.view != nullptr &&
            load.mem.hli_item != format::kNoItem &&
            insn.mem.hli_item != format::kNoItem) {
          // Both the within-iteration view and the loop-carried table must
          // clear the pair before hoisting across iterations is safe.
          const HliPairs::MemPair pair =
              pairs_.mem_pair(load.mem.hli_item, insn.mem.hli_item);
          conflict = pair.conflict() || pair.loop_carried();
        }
        if (conflict && options_.fallback != nullptr) {
          // Hoisting moves the load across every iteration, so both the
          // same-iteration and the loop-carried question must stay open
          // for the store to keep blocking it.
          conflict = options_.fallback->may_conflict(load_pos, i) ||
                     options_.fallback->may_carry(beg_, load_pos, i);
        }
        if (conflict) {
          if (options_.use_hli) ++stats_.loads_blocked_hli;
          return false;
        }
      } else {
        bool clobbers = true;
        if (options_.use_hli && options_.view != nullptr &&
            load.mem.hli_item != format::kNoItem &&
            insn.hli_item != format::kNoItem) {
          const query::CallAcc acc =
              pairs_.call_acc(load.mem.hli_item, insn.hli_item);
          clobbers = acc == query::CallAcc::Mod || acc == query::CallAcc::RefMod;
        }
        if (clobbers && options_.fallback != nullptr) {
          clobbers = (options_.fallback->call_effect(i, load_pos) &
                      kCallWritesLoc) != 0;
        }
        if (clobbers) return false;
      }
    }
    return true;
  }

  /// Layout of the span: [preheader][LoopBeg][body]; the LoopBeg note
  /// moves after the hoisted code, and nothing outside the span moves.
  void rewrite() {
    if (hoisted_count_ == 0) return;
    std::vector<Insn>& insns = func_.insns;
    scratch_.clear();
    scratch_.reserve(end_ - beg_);
    for (std::size_t i = beg_ + 1; i < end_; ++i) {
      if (hoisted(i)) scratch_.push_back(std::move(insns[i]));
    }
    scratch_.push_back(std::move(insns[beg_]));
    for (std::size_t i = beg_ + 1; i < end_; ++i) {
      if (!hoisted(i)) scratch_.push_back(std::move(insns[i]));
    }
    std::move(scratch_.begin(), scratch_.end(),
              insns.begin() + static_cast<std::ptrdiff_t>(beg_));
  }

  RtlFunction& func_;
  const LicmOptions& options_;
  LicmStats& stats_;
  HliPairs pairs_;  ///< One arena for all loops.
  std::vector<std::uint32_t> defs_;     ///< Per register: definitions in func.
  std::vector<std::uint32_t> in_loop_;  ///< loop_stamp_: defined in the loop.
  std::uint32_t loop_stamp_ = 0;
  std::size_t beg_ = 0;  ///< The loop's LoopBeg position.
  std::size_t end_ = 0;  ///< Its LoopEnd position.
  std::vector<std::uint8_t> hoisted_;  ///< Per position from beg_.
  std::size_t hoisted_count_ = 0;
  std::vector<std::size_t> writes_;  ///< The loop's stores and calls, in order.
  std::vector<Insn> scratch_;
};

}  // namespace

LicmStats licm_function(RtlFunction& func, const LicmOptions& options) {
  LicmStats stats;
  FunctionLicm licm(func, options, stats);
  // Innermost loops in LoopBeg order, each loop region once.
  std::set<format::RegionId> processed;
  for (const LoopSpan& loop : loop_spans(func)) {
    if (!loop.innermost) continue;
    if (!processed.insert(func.insns[loop.beg].loop_region).second) continue;
    // Each prior rewrite reordered its loop; the oracle must answer for
    // the stream as it is now.
    if (options.fallback != nullptr) options.fallback->refresh(func);
    licm.run(loop);
  }
  return stats;
}

}  // namespace hli::backend
