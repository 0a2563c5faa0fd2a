#include "backend/licm.hpp"

#include <algorithm>
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

class LoopLicm {
 public:
  LoopLicm(RtlFunction& func, const LoopSpan& loop, const LicmOptions& options,
           LicmStats& stats, HliPairs& pairs)
      : func_(func), loop_(loop), options_(options), stats_(stats),
        pairs_(pairs) {}

  void run() {
    // The loop-carried answers come from this loop's LCDD table.
    pairs_.prepare(func_.insns, loop_.beg + 1, loop_.end, loop_region());
    collect_defs();
    // Iterate: hoisting one insn can make another invariant.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
        if (hoisted_.contains(i)) continue;
        const Insn& insn = func_.insns[i];
        if (hoistable_pure(insn.op)) {
          if (invariant_inputs(insn) && single_def(insn.rd)) {
            hoisted_.insert(i);
            defs_in_loop_.erase(insn.rd);
            ++stats_.pure_hoisted;
            changed = true;
          }
        } else if (insn.op == Opcode::Load) {
          if (invariant_inputs(insn) && single_def(insn.rd) &&
              no_conflicting_writes(insn, i)) {
            hoisted_.insert(i);
            defs_in_loop_.erase(insn.rd);
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
    return func_.insns[loop_.beg].loop_region;
  }

  void collect_defs() {
    for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
      const Reg rd = def_of(func_.insns[i]);
      if (rd != kNoReg) defs_in_loop_.insert(rd);
    }
  }

  [[nodiscard]] bool invariant_inputs(const Insn& insn) const {
    bool invariant = true;
    for_each_read(insn, [&](Reg r) {
      if (defs_in_loop_.contains(r)) invariant = false;
    });
    return invariant;
  }

  /// The register must be defined exactly once in the loop (our lowering's
  /// expression temps) so moving the single definition is sound.
  [[nodiscard]] bool single_def(Reg rd) const {
    if (rd == kNoReg) return false;
    std::size_t defs = 0;
    for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
      if (def_of(func_.insns[i]) == rd) ++defs;
    }
    // Also reject registers defined anywhere outside the loop: hoisting
    // would then clobber the outer value early.
    for (std::size_t i = 0; i < func_.insns.size(); ++i) {
      if (i > loop_.beg && i < loop_.end) continue;
      if (def_of(func_.insns[i]) == rd) return false;
    }
    return defs == 1;
  }

  [[nodiscard]] bool no_conflicting_writes(const Insn& load,
                                           std::size_t load_pos) {
    for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
      if (hoisted_.contains(i)) continue;
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
                     options_.fallback->may_carry(loop_.beg, load_pos, i);
        }
        if (conflict) {
          if (options_.use_hli) ++stats_.loads_blocked_hli;
          return false;
        }
      } else if (insn.op == Opcode::Call) {
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

  void rewrite() {
    if (hoisted_.empty()) return;
    std::vector<Insn> preheader;
    std::vector<Insn> body;
    preheader.reserve(hoisted_.size());
    for (std::size_t i = loop_.beg + 1; i < loop_.end; ++i) {
      if (hoisted_.contains(i)) {
        preheader.push_back(func_.insns[i]);
      } else {
        body.push_back(func_.insns[i]);
      }
    }
    // Layout: [preheader][LoopBeg][body][LoopEnd...]; the LoopBeg note
    // moves after the hoisted code.
    std::vector<Insn> rebuilt;
    rebuilt.reserve(func_.insns.size());
    rebuilt.insert(rebuilt.end(), func_.insns.begin(),
                   func_.insns.begin() + static_cast<std::ptrdiff_t>(loop_.beg));
    rebuilt.insert(rebuilt.end(), preheader.begin(), preheader.end());
    rebuilt.push_back(func_.insns[loop_.beg]);
    rebuilt.insert(rebuilt.end(), body.begin(), body.end());
    rebuilt.insert(rebuilt.end(),
                   func_.insns.begin() + static_cast<std::ptrdiff_t>(loop_.end),
                   func_.insns.end());
    func_.insns = std::move(rebuilt);
  }

  RtlFunction& func_;
  const LoopSpan& loop_;
  const LicmOptions& options_;
  LicmStats& stats_;
  HliPairs& pairs_;
  std::set<Reg> defs_in_loop_;
  std::set<std::size_t> hoisted_;
};

}  // namespace

LicmStats licm_function(RtlFunction& func, const LicmOptions& options) {
  LicmStats stats;
  HliPairs pairs(options.use_hli ? options.view : nullptr,
                 options.batch_queries);  // One arena for all loops.
  // Process loops one at a time; indices shift after each rewrite, so
  // re-discover until no further hoisting happens.
  bool changed = true;
  std::set<format::RegionId> processed;
  while (changed) {
    changed = false;
    for (const LoopSpan& loop : loop_spans(func)) {
      if (!loop.innermost) continue;
      const format::RegionId region = func.insns[loop.beg].loop_region;
      if (processed.contains(region)) continue;
      processed.insert(region);
      // Each prior rewrite shifted indices; the oracle must answer for the
      // stream as it is now.
      if (options.fallback != nullptr) options.fallback->refresh(func);
      LoopLicm licm(func, loop, options, stats, pairs);
      licm.run();
      changed = true;
      break;  // Indices invalidated: rescan.
    }
  }
  return stats;
}

}  // namespace hli::backend
