#include "backend/cse.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
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

/// A value-table key: the opcode, its unit, the resolved operands, the
/// immediate (a float LoadImm's bits) and the label (LoadAddr's symbol).
struct Key {
  Opcode op = Opcode::LoadImm;
  bool is_float = false;
  Reg rs1 = kNoReg;
  Reg rs2 = kNoReg;
  std::int64_t imm = 0;
  std::int32_t label = -1;

  friend bool operator==(const Key&, const Key&) = default;
};

/// A remembered load's address: base register, offset and width.
struct LoadKey {
  Reg address = kNoReg;
  std::int64_t const_offset = 0;
  std::uint8_t size = 0;

  friend bool operator==(const LoadKey&, const LoadKey&) = default;
};

[[nodiscard]] std::size_t mix(std::size_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull;
}

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::size_t h = 0xcbf29ce484222325ull;
    h = mix(h, (static_cast<std::uint64_t>(k.op) << 1) | (k.is_float ? 1 : 0));
    h = mix(h, static_cast<std::uint32_t>(k.rs1));
    h = mix(h, static_cast<std::uint32_t>(k.rs2));
    h = mix(h, static_cast<std::uint64_t>(k.imm));
    return mix(h, static_cast<std::uint32_t>(k.label));
  }
};

struct LoadKeyHash {
  std::size_t operator()(const LoadKey& k) const {
    std::size_t h = 0xcbf29ce484222325ull;
    h = mix(h, static_cast<std::uint32_t>(k.address));
    h = mix(h, static_cast<std::uint64_t>(k.const_offset));
    return mix(h, k.size);
  }
};

/// Local CSE over every block of one function.  Every table entry carries
/// the clock tick it was made at, and every register the tick it was last
/// redefined at: an entry is live while it was made in the current block
/// and after every register it names was last redefined.  Redefining a
/// register is one store to its tick, whatever the tables hold; a dead
/// entry is skipped where it is met and overwritten when its key recurs.
class FunctionCse {
 public:
  FunctionCse(RtlFunction& func, const CseOptions& options, CseStats& stats)
      : func_(func), options_(options), stats_(stats),
        pairs_(options.use_hli ? options.view : nullptr,
               options.batch_queries),
        killed_(slots(func)), copy_of_(slots(func), kNoReg),
        copy_made_(slots(func), 0) {}

  void run() {
    std::size_t at = 0;
    while (at < func_.insns.size()) {
      if (is_control(func_.insns[at].op)) {
        ++at;
        continue;
      }
      std::size_t end = at;
      while (end < func_.insns.size() && !is_control(func_.insns[end].op)) {
        ++end;
      }
      run_block(at, end);
      at = end;
    }
  }

 private:
  struct Value {
    Reg reg = kNoReg;
    std::uint64_t made = 0;
  };

  struct LoadEntry {
    LoadKey key;
    Reg value = kNoReg;
    MemRef mem;
    std::size_t pos = 0;  ///< Insn index of the load (for the fallback oracle).
    std::uint64_t made = 0;
  };

  /// One slot per register, plus slot 0 for kNoReg: a Load or Call may
  /// name it as its destination, and then it is killed like any other.
  [[nodiscard]] static std::size_t slots(const RtlFunction& func) {
    return static_cast<std::size_t>(func.num_regs) + 1;
  }
  [[nodiscard]] static std::size_t slot(Reg r) {
    return static_cast<std::size_t>(r + 1);
  }

  /// Made after `r` was last redefined?
  [[nodiscard]] bool fresh(std::uint64_t made, Reg r) const {
    return made > killed_[slot(r)];
  }
  [[nodiscard]] bool live(const Key& key, const Value& value) const {
    return value.made > block_start_ && fresh(value.made, key.rs1) &&
           fresh(value.made, key.rs2) && fresh(value.made, value.reg);
  }
  [[nodiscard]] bool live(const LoadKey& key, const Value& value) const {
    return value.made > loads_start_ && fresh(value.made, key.address) &&
           fresh(value.made, value.reg);
  }
  [[nodiscard]] bool live(const LoadEntry& entry) const {
    return live(entry.key, Value{entry.value, entry.made});
  }

  void run_block(std::size_t begin, std::size_t end) {
    pairs_.prepare(func_.insns, begin, end);
    block_start_ = loads_start_ = ++clock_;
    loads_.clear();
    for (std::size_t at = begin; at < end; ++at) {
      Insn& insn = func_.insns[at];
      // Sequencing matters: (1) look up reuse against the PRE-insn tables,
      // (2) kill entries mentioning the redefined register, (3) record the
      // new value.  Doing (3) before (2) would kill the fresh entry.  A
      // key naming the destination names its old value, so an
      // instruction that reads its own destination records nothing.
      switch (insn.op) {
        case Opcode::Store:
          invalidate_stores(insn, at);
          break;
        case Opcode::Call:
          invalidate_call(insn, at);
          if (insn.rd != kNoReg) kill_register(insn.rd);
          break;
        case Opcode::Load: {
          const LoadKey key{resolve(insn.rs1), insn.mem.const_offset,
                            insn.mem.size};
          const Reg value = insn.rd;
          const MemRef mem = insn.mem;
          const bool reused = try_reuse_load(insn, key);
          kill_register(value);
          if (reused) {
            record_copy(value, resolve(insn.rs1));  // insn is a Move now.
          } else if (key.address != value) {
            const std::uint64_t made = ++clock_;
            load_index_[key] = Value{value, made};
            loads_.push_back(LoadEntry{key, value, mem, at, made});
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
              record_copy(value, resolve(insn.rs1));  // insn is a Move now.
            } else if (key.rs1 != value && key.rs2 != value) {
              values_[key] = Value{value, ++clock_};
            }
          } else if (insn.op == Opcode::Move && insn.rd != kNoReg) {
            const Reg src = resolve(insn.rs1);
            kill_register(insn.rd);
            record_copy(insn.rd, src);
          } else if (insn.rd != kNoReg) {
            kill_register(insn.rd);
          }
          break;
      }
    }
  }

  /// Follows the local copy chain so value numbering sees through Moves.
  [[nodiscard]] Reg resolve(Reg r) const {
    while (true) {
      const std::size_t s = slot(r);
      const Reg src = copy_of_[s];
      const std::uint64_t made = copy_made_[s];
      if (made <= block_start_ || !fresh(made, r) || !fresh(made, src)) {
        return r;
      }
      r = src;
    }
  }

  /// `dst` now holds `src`'s value.  A register is never its own copy.
  void record_copy(Reg dst, Reg src) {
    if (src == dst) return;
    copy_of_[slot(dst)] = src;
    copy_made_[slot(dst)] = ++clock_;
  }

  void kill_register(Reg reg) { killed_[slot(reg)] = ++clock_; }

  Key key_of(const Insn& insn) const {
    std::int64_t imm = insn.imm;
    if (insn.op == Opcode::LoadImm && insn.is_float) {
      static_assert(sizeof(double) == sizeof(std::int64_t));
      std::memcpy(&imm, &insn.fimm, sizeof(imm));
    }
    // LoadAddr reuses `label` as a symbol id: include it in the key.
    return {insn.op, insn.is_float, resolve(insn.rs1), resolve(insn.rs2), imm,
            insn.label};
  }

  /// `insn` becomes `rd = Move from` (the reused value).
  static void rewrite_as_move(Insn& insn, Reg from) {
    Insn replacement;
    replacement.op = Opcode::Move;
    replacement.is_float = insn.is_float;
    replacement.rd = insn.rd;
    replacement.rs1 = from;
    replacement.line = insn.line;
    insn = std::move(replacement);
  }

  /// Rewrites `insn` into a Move when the value exists; returns true then.
  bool try_reuse_pure(Insn& insn, const Key& key) {
    const auto it = values_.find(key);
    if (it == values_.end() || !live(key, it->second)) return false;
    ++stats_.exprs_reused;
    rewrite_as_move(insn, it->second.reg);
    return true;
  }

  bool try_reuse_load(Insn& insn, const LoadKey& key) {
    const auto it = load_index_.find(key);
    if (it == load_index_.end() || !live(key, it->second)) return false;
    ++stats_.loads_reused;
    ++stats_.loads_deleted;
    if (options_.on_load_deleted && insn.mem.hli_item != format::kNoItem) {
      options_.on_load_deleted(insn.mem.hli_item);
    }
    rewrite_as_move(insn, it->second.reg);
    return true;
  }

  /// Kills `entry`'s load-index slot; the caller erases the entry itself.
  void forget(const LoadEntry& entry) { load_index_[entry.key].made = 0; }

  void invalidate_stores(const Insn& store, std::size_t store_pos) {
    std::erase_if(loads_, [&](const LoadEntry& entry) {
      if (!live(entry)) return true;
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
      if (conflict) forget(entry);
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
      stats_.entries_purged_at_calls += static_cast<std::uint64_t>(
          std::count_if(loads_.begin(), loads_.end(),
                        [&](const LoadEntry& entry) { return live(entry); }));
      loads_.clear();
      loads_start_ = ++clock_;
      return;
    }
    std::erase_if(loads_, [&](const LoadEntry& entry) {
      if (!live(entry)) return true;
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
        forget(entry);
      } else {
        ++stats_.entries_kept_at_calls;
      }
      return clobbered;
    });
  }

  RtlFunction& func_;
  const CseOptions& options_;
  CseStats& stats_;
  HliPairs pairs_;  ///< One arena for all blocks.
  std::uint64_t clock_ = 0;
  std::uint64_t block_start_ = 0;  ///< Entries made before belong to another block.
  std::uint64_t loads_start_ = 0;  ///< ... or were purged by a call.
  std::vector<std::uint64_t> killed_;  ///< Per slot: tick of the last redefinition.
  std::vector<Reg> copy_of_;           ///< Per slot: the register it copies.
  std::vector<std::uint64_t> copy_made_;
  std::unordered_map<Key, Value, KeyHash> values_;
  std::unordered_map<LoadKey, Value, LoadKeyHash> load_index_;
  std::vector<LoadEntry> loads_;  ///< This block's loads, in program order.
};

}  // namespace

CseStats cse_function(RtlFunction& func, const CseOptions& options) {
  CseStats stats;
  FunctionCse(func, options, stats).run();
  return stats;
}

}  // namespace hli::backend
