// Local CSE and LICM built the direct way, kept as test-only oracles for
// backend/cse.cpp and backend/licm.cpp.  CSE keeps its value and load
// tables in a std::map and a vector and, on every instruction that
// defines a register, sweeps all three tables for entries naming it.
// LICM counts a candidate's definitions over the loop and then the whole
// function, keeps its loop facts in std::sets, copies the function to
// hoist, and rescans the loop spans after every loop.  These are the
// passes the HLI statistics were defined by; cse_licm_diff_test.cpp
// requires the production passes to give the same RTL, the same
// statistics and the same callback sequences.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "backend/cse.hpp"
#include "backend/gcc_alias.hpp"
#include "backend/hli_pairs.hpp"
#include "backend/licm.hpp"

namespace hli::backend::cse_licm_reference {

namespace detail {

/// Is this opcode a pure value computation safe to reuse?
[[nodiscard]] inline bool pure_value_op(Opcode op) {
  switch (op) {
    case Opcode::LoadImm:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::Neg:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Not:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::IntToFp:
    case Opcode::FpToInt:
    case Opcode::LoadAddr:
      return true;
    default:
      return false;
  }
}

class BlockCse {
 public:
  BlockCse(RtlFunction& func, std::size_t begin, std::size_t end,
           const CseOptions& options, CseStats& stats, HliPairs& pairs)
      : func_(func), begin_(begin), end_(end), options_(options), stats_(stats),
        pairs_(pairs) {}

  void run() {
    pairs_.prepare(func_.insns, begin_, end_);
    for (std::size_t at = begin_; at < end_; ++at) {
      Insn& insn = func_.insns[at];
      // Sequencing matters: (1) look up reuse against the PRE-insn tables,
      // (2) kill entries mentioning the redefined register, (3) record the
      // new value.  Doing (3) before (2) would erase the fresh entry.
      switch (insn.op) {
        case Opcode::Store:
          invalidate_stores(insn, at);
          break;
        case Opcode::Call:
          invalidate_call(insn, at);
          if (insn.rd != kNoReg) kill_register(insn.rd);
          break;
        case Opcode::Load: {
          const Reg address = resolve(insn.rs1);
          const MemRef mem = insn.mem;
          const Reg value = insn.rd;
          const bool reused = try_reuse_load(insn);
          kill_register(value);
          if (reused) {
            copies_[value] = resolve(insn.rs1);  // insn is a Move now.
          } else {
            LoadEntry entry;
            entry.address = address;
            entry.const_offset = mem.const_offset;
            entry.value = value;
            entry.mem = mem;
            entry.pos = at;
            loads_.push_back(entry);
          }
          break;
        }
        default:
          if (pure_value_op(insn.op)) {
            const Key key = key_of(insn);
            const Reg value = insn.rd;
            const bool reused = try_reuse_pure(insn, key);
            kill_register(value);
            if (reused) {
              copies_[value] = resolve(insn.rs1);  // insn is a Move now.
            } else {
              values_.emplace(key, value);
            }
          } else if (insn.op == Opcode::Move && insn.rd != kNoReg) {
            const Reg src = resolve(insn.rs1);
            kill_register(insn.rd);
            if (src != insn.rd) copies_[insn.rd] = src;
          } else if (insn.rd != kNoReg) {
            kill_register(insn.rd);
          }
          break;
      }
    }
  }

 private:
  using Key = std::tuple<Opcode, bool, Reg, Reg, std::int64_t, std::int64_t>;

  struct LoadEntry {
    Reg address = kNoReg;
    std::int64_t const_offset = 0;
    Reg value = kNoReg;
    MemRef mem;
    std::size_t pos = 0;  ///< Insn index of the load (for the fallback oracle).
  };

  /// Follows the local copy chain so value numbering sees through Moves.
  [[nodiscard]] Reg resolve(Reg r) const {
    while (true) {
      const auto it = copies_.find(r);
      if (it == copies_.end()) return r;
      r = it->second;
    }
  }

  Key key_of(const Insn& insn) const {
    std::int64_t imm = insn.imm;
    if (insn.op == Opcode::LoadImm && insn.is_float) {
      std::int64_t bits = 0;
      static_assert(sizeof(double) == sizeof(std::int64_t));
      std::memcpy(&bits, &insn.fimm, sizeof(bits));
      imm = bits;
    }
    // LoadAddr reuses `label` as a symbol id: include it in the key.
    return {insn.op, insn.is_float, resolve(insn.rs1), resolve(insn.rs2), imm,
            insn.label};
  }

  /// Rewrites `insn` into a Move when the value exists; returns true then.
  bool try_reuse_pure(Insn& insn, const Key& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) return false;
    ++stats_.exprs_reused;
    Insn replacement;
    replacement.op = Opcode::Move;
    replacement.is_float = insn.is_float;
    replacement.rd = insn.rd;
    replacement.rs1 = it->second;
    replacement.line = insn.line;
    insn = std::move(replacement);
    return true;
  }

  bool try_reuse_load(Insn& insn) {
    for (const LoadEntry& entry : loads_) {
      if (entry.address == resolve(insn.rs1) &&
          entry.const_offset == insn.mem.const_offset &&
          entry.mem.size == insn.mem.size) {
        ++stats_.loads_reused;
        ++stats_.loads_deleted;
        if (options_.on_load_deleted && insn.mem.hli_item != format::kNoItem) {
          options_.on_load_deleted(insn.mem.hli_item);
        }
        Insn replacement;
        replacement.op = Opcode::Move;
        replacement.is_float = insn.is_float;
        replacement.rd = insn.rd;
        replacement.rs1 = entry.value;
        replacement.line = insn.line;
        insn = std::move(replacement);
        return true;
      }
    }
    return false;
  }

  void invalidate_stores(const Insn& store, std::size_t store_pos) {
    std::erase_if(loads_, [&](const LoadEntry& entry) {
      bool conflict = gcc_may_conflict(entry.mem, store.mem);
      if (conflict && options_.use_hli && options_.view != nullptr &&
          entry.mem.hli_item != format::kNoItem &&
          store.mem.hli_item != format::kNoItem) {
        conflict =
            pairs_.mem_pair(entry.mem.hli_item, store.mem.hli_item).conflict();
      }
      if (conflict && options_.fallback != nullptr) {
        conflict = options_.fallback->may_conflict(entry.pos, store_pos);
      }
      return conflict;
    });
  }

  /// Figure 4: on a call, natively purge everything; with HLI REF/MOD
  /// (or the independent fallback oracle), only entries the callee may
  /// modify.
  void invalidate_call(const Insn& call, std::size_t call_pos) {
    const bool have_hli = options_.use_hli && options_.view != nullptr &&
                          call.hli_item != format::kNoItem;
    if (!have_hli && options_.fallback == nullptr) {
      stats_.entries_purged_at_calls += loads_.size();
      loads_.clear();
      return;
    }
    std::erase_if(loads_, [&](const LoadEntry& entry) {
      bool clobbered = true;
      if (have_hli && entry.mem.hli_item != format::kNoItem) {
        const query::CallAcc acc =
            pairs_.call_acc(entry.mem.hli_item, call.hli_item);
        clobbered = acc == query::CallAcc::Mod || acc == query::CallAcc::RefMod;
      }
      if (clobbered && options_.fallback != nullptr) {
        clobbered = (options_.fallback->call_effect(call_pos, entry.pos) &
                     kCallWritesLoc) != 0;
      }
      if (clobbered) {
        ++stats_.entries_purged_at_calls;
      } else {
        ++stats_.entries_kept_at_calls;
      }
      return clobbered;
    });
  }

  void kill_register(Reg reg) {
    std::erase_if(values_, [reg](const auto& kv) {
      const Key& key = kv.first;
      return std::get<2>(key) == reg || std::get<3>(key) == reg ||
             kv.second == reg;
    });
    std::erase_if(loads_, [reg](const LoadEntry& entry) {
      return entry.address == reg || entry.value == reg;
    });
    std::erase_if(copies_, [reg](const auto& kv) {
      return kv.first == reg || kv.second == reg;
    });
  }

  RtlFunction& func_;
  std::size_t begin_;
  std::size_t end_;
  const CseOptions& options_;
  CseStats& stats_;
  HliPairs& pairs_;
  std::map<Key, Reg> values_;
  std::vector<LoadEntry> loads_;
  std::unordered_map<Reg, Reg> copies_;
};

[[nodiscard]] inline bool hoistable_pure(Opcode op) {
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

}  // namespace detail

inline CseStats cse_function(RtlFunction& func, const CseOptions& options) {
  CseStats stats;
  HliPairs pairs(options.use_hli ? options.view : nullptr,
                 options.batch_queries);  // One arena for all blocks.
  std::size_t at = 0;
  while (at < func.insns.size()) {
    if (is_control(func.insns[at].op)) {
      ++at;
      continue;
    }
    std::size_t end = at;
    while (end < func.insns.size() && !is_control(func.insns[end].op)) ++end;
    detail::BlockCse cse(func, at, end, options, stats, pairs);
    cse.run();
    at = end;
  }
  return stats;
}

inline LicmStats licm_function(RtlFunction& func, const LicmOptions& options) {
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
      detail::LoopLicm licm(func, loop, options, stats, pairs);
      licm.run();
      changed = true;
      break;  // Indices invalidated: rescan.
    }
  }
  return stats;
}

}  // namespace hli::backend::cse_licm_reference
