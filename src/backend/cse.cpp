#include "backend/cse.hpp"

#include <cstring>
#include <map>
#include <unordered_map>
#include <tuple>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "backend/hli_pairs.hpp"
#include "support/telemetry.hpp"

namespace hli::backend {

namespace {
const telemetry::Counter c_exprs_reused = telemetry::counter("cse.exprs_reused");
const telemetry::Counter c_loads_reused = telemetry::counter("cse.loads_reused");
const telemetry::Counter c_loads_deleted =
    telemetry::counter("cse.loads_deleted");
const telemetry::Counter c_purged_at_calls =
    telemetry::counter("cse.entries_purged_at_calls");
const telemetry::Counter c_kept_at_calls =
    telemetry::counter("cse.entries_kept_at_calls");
}  // namespace

void CseStats::record_telemetry() const {
  c_exprs_reused.add(exprs_reused);
  c_loads_reused.add(loads_reused);
  c_loads_deleted.add(loads_deleted);
  c_purged_at_calls.add(entries_purged_at_calls);
  c_kept_at_calls.add(entries_kept_at_calls);
}

namespace {

/// Is this opcode a pure value computation safe to reuse?
[[nodiscard]] bool pure_value_op(Opcode op) {
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

}  // namespace

CseStats cse_function(RtlFunction& func, const CseOptions& options) {
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
    BlockCse cse(func, at, end, options, stats, pairs);
    cse.run();
    at = end;
  }
  return stats;
}

}  // namespace hli::backend
