#include "backend/regalloc.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "support/telemetry.hpp"

namespace hli::backend {

namespace {
const telemetry::Counter c_intervals = telemetry::counter("regalloc.intervals");
const telemetry::Counter c_spilled = telemetry::counter("regalloc.spilled");
const telemetry::Counter c_spill_loads =
    telemetry::counter("regalloc.spill_loads");
const telemetry::Counter c_spill_stores =
    telemetry::counter("regalloc.spill_stores");
}  // namespace

void RegAllocStats::record_telemetry() const {
  c_intervals.add(intervals);
  c_spilled.add(spilled);
  c_spill_loads.add(spill_loads);
  c_spill_stores.add(spill_stores);
}

namespace {

struct Interval {
  Reg vreg = kNoReg;
  std::size_t start = 0;
  std::size_t end = 0;
  bool is_float = false;
  bool unspillable = false;  ///< Call arguments (see header).
  Reg assigned = kNoReg;     ///< Physical register, or kNoReg when spilled.
  bool spilled = false;
  std::int64_t slot = -1;    ///< Frame slot when spilled.
};

/// Does the DEFINED VALUE live in the float domain?  Not the same as
/// Insn::is_float: comparisons of floats produce an integer 0/1, and
/// FpToInt produces an integer — spill code must use the value's domain.
bool defines_float(const Insn& insn) {
  switch (insn.op) {
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::FpToInt:
    case Opcode::LoadAddr:
      return false;
    case Opcode::IntToFp:
      return true;
    default:
      return insn.is_float;
  }
}

class LinearScan {
 public:
  LinearScan(RtlFunction& func, const RegAllocOptions& options)
      : func_(func), options_(options) {}

  RegAllocStats run() {
    if (func_.num_regs == 0) return stats_;
    collect_classes();
    build_intervals();
    extend_over_loops();
    scan();
    rewrite();
    return stats_;
  }

 private:
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

  void collect_classes() {
    const auto n = static_cast<std::size_t>(func_.num_regs);
    is_float_.assign(n, false);
    for (const Insn& insn : func_.insns) {
      const Reg rd = def_of(insn);
      if (rd != kNoReg && defines_float(insn)) {
        is_float_[static_cast<std::size_t>(rd)] = true;
      }
    }
    for (std::size_t i = 0; i < func_.param_regs.size(); ++i) {
      if (func_.param_is_float[i]) {
        is_float_[static_cast<std::size_t>(func_.param_regs[i])] = true;
      }
    }
  }

  void build_intervals() {
    const auto n = static_cast<std::size_t>(func_.num_regs);
    first_.assign(n, kNever);
    last_.assign(n, 0);
    unspillable_.assign(n, false);
    auto touch = [this](Reg r, std::size_t at) {
      const auto idx = static_cast<std::size_t>(r);
      if (first_[idx] == kNever) first_[idx] = at;
      last_[idx] = std::max(last_[idx], at);
    };
    // Parameters are live from function entry; the interpreter binds
    // incoming values directly to these registers before any instruction
    // runs, so they can never be spilled (nothing would fill the slot).
    for (const Reg r : func_.param_regs) {
      touch(r, 0);
      unspillable_[static_cast<std::size_t>(r)] = true;
    }
    for (std::size_t at = 0; at < func_.insns.size(); ++at) {
      const Insn& insn = func_.insns[at];
      for_each_read(insn, [&](Reg r) { touch(r, at); });
      if (insn.op == Opcode::Call) {
        for (const Reg r : insn.args) unspillable_[static_cast<std::size_t>(r)] = true;
      }
      if (insn.induction != kNoReg && insn.op == Opcode::LoopBeg) {
        unspillable_[static_cast<std::size_t>(insn.induction)] = true;
      }
      const Reg rd = def_of(insn);
      if (rd != kNoReg) touch(rd, at);
    }
  }

  /// A register upward-exposed in a loop (read before any in-loop def) is
  /// live around the back edge: its interval must cover the whole loop.
  void extend_over_loops() {
    // Label positions, to distinguish intra-loop forward branches (if /
    // else / short-circuit shapes) from the loop's own exit branch.
    std::vector<std::size_t> label_pos;
    for (std::size_t i = 0; i < func_.insns.size(); ++i) {
      if (func_.insns[i].op == Opcode::Label) {
        const auto id = static_cast<std::size_t>(func_.insns[i].label);
        if (label_pos.size() <= id) label_pos.resize(id + 1, kNever);
        label_pos[id] = i;
      }
    }

    const auto n = static_cast<std::size_t>(func_.num_regs);
    std::vector<bool> defined(n);
    for (const LoopSpan& loop : loop_spans(func_)) {
      const std::size_t beg = loop.beg;
      const std::size_t end = loop.end;
      std::fill(defined.begin(), defined.end(), false);
      // Open conditional scopes: targets of passed forward branches that
      // lie inside the loop.  A definition under such a scope may be
      // skipped at run time and must NOT kill upward exposure.
      std::multiset<std::size_t> pending_targets;
      for (std::size_t at = beg; at <= end && at < func_.insns.size(); ++at) {
        const Insn& insn = func_.insns[at];
        pending_targets.erase(at);
        if ((insn.op == Opcode::BranchZ || insn.op == Opcode::BranchNZ ||
             insn.op == Opcode::Jump) &&
            insn.label >= 0) {
          const auto id = static_cast<std::size_t>(insn.label);
          if (id < label_pos.size() && label_pos[id] != kNever &&
              label_pos[id] > at && label_pos[id] < end) {
            pending_targets.insert(label_pos[id]);
          }
        }
        for_each_read(insn, [&](Reg r) {
          const auto idx = static_cast<std::size_t>(r);
          if (!defined[idx]) {
            // Upward-exposed: live across the back edge.
            first_[idx] = std::min(first_[idx], beg);
            last_[idx] = std::max(last_[idx], end);
          }
        });
        const Reg rd = def_of(insn);
        if (rd != kNoReg && pending_targets.empty()) {
          defined[static_cast<std::size_t>(rd)] = true;
        }
      }
    }
  }

  void scan() {
    intervals_.clear();
    for (std::size_t r = 0; r < first_.size(); ++r) {
      if (first_[r] == kNever) continue;
      Interval iv;
      iv.vreg = static_cast<Reg>(r);
      iv.start = first_[r];
      iv.end = last_[r];
      iv.is_float = is_float_[r];
      iv.unspillable = unspillable_[r];
      intervals_.push_back(iv);
    }
    stats_.intervals = intervals_.size();
    std::sort(intervals_.begin(), intervals_.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start ||
                       (a.start == b.start && a.vreg < b.vreg);
              });

    allocate_class(/*is_float=*/false, options_.int_regs);
    allocate_class(/*is_float=*/true, options_.fp_regs);

    // Record the assignment per vreg.
    assignment_.assign(first_.size(), nullptr);
    for (Interval& iv : intervals_) {
      assignment_[static_cast<std::size_t>(iv.vreg)] = &iv;
    }
  }

  void allocate_class(bool is_float, unsigned count) {
    std::vector<Interval*> active;
    std::vector<bool> in_use(count, false);
    auto release_expired = [&](std::size_t now) {
      std::erase_if(active, [&](Interval* iv) {
        if (iv->end >= now) return false;
        in_use[static_cast<std::size_t>(iv->assigned)] = false;
        return true;
      });
    };
    for (Interval& iv : intervals_) {
      if (iv.is_float != is_float) continue;
      release_expired(iv.start);
      // Free register?
      Reg free = kNoReg;
      for (unsigned p = 0; p < count; ++p) {
        if (!in_use[p]) {
          free = static_cast<Reg>(p);
          break;
        }
      }
      if (free != kNoReg) {
        iv.assigned = free;
        in_use[static_cast<std::size_t>(free)] = true;
        active.push_back(&iv);
        continue;
      }
      // Spill the furthest-ending spillable interval (current included).
      Interval* victim = iv.unspillable ? nullptr : &iv;
      for (Interval* candidate : active) {
        if (candidate->unspillable) continue;
        if (victim == nullptr || candidate->end > victim->end) victim = candidate;
      }
      if (victim == nullptr) {
        // Everything here is unspillable: let this interval overflow into
        // a virtual register beyond the physical file (documented
        // approximation; counted, and execution stays correct).
        iv.assigned = kNoReg;
        iv.spilled = false;
        overflowed_.push_back(&iv);
        continue;
      }
      victim->spilled = true;
      victim->slot = static_cast<std::int64_t>(func_.frame_size);
      func_.frame_size += 8;
      ++stats_.spilled;
      if (victim != &iv) {
        // Steal the victim's register.
        iv.assigned = victim->assigned;
        victim->assigned = kNoReg;
        std::erase(active, victim);
        active.push_back(&iv);
      }
    }
  }

  // -- Rewriting ----------------------------------------------------------

  struct TempPool {
    std::vector<Reg> regs;
    std::size_t next = 0;
    Reg take() {
      const Reg r = regs[next];
      next = (next + 1) % regs.size();
      return r;
    }
    void reset() { next = 0; }
  };

  Insn make_slot_addr(Reg temp, std::int64_t slot, std::uint32_t line) {
    Insn lea;
    lea.op = Opcode::LoadAddr;
    lea.rd = temp;
    lea.label = -1;  // Frame.
    lea.imm = slot;
    lea.line = line;
    return lea;
  }

  Insn make_spill_load(Reg value, Reg addr, std::int64_t slot, bool is_float,
                       std::uint32_t line) {
    Insn load;
    load.op = Opcode::Load;
    load.is_float = is_float;
    load.rd = value;
    load.rs1 = addr;
    load.mem.base = MemBase::Frame;
    load.mem.frame_offset = slot;
    load.mem.offset_known = true;
    load.mem.size = 8;
    load.line = line;
    return load;
  }

  Insn make_spill_store(Reg value, Reg addr, std::int64_t slot, bool is_float,
                        std::uint32_t line) {
    Insn store;
    store.op = Opcode::Store;
    store.is_float = is_float;
    store.rs1 = addr;
    store.rs2 = value;
    store.mem.base = MemBase::Frame;
    store.mem.frame_offset = slot;
    store.mem.offset_known = true;
    store.mem.size = 8;
    store.line = line;
    return store;
  }

  void rewrite() {
    // Physical register layout:
    //   [0, int_regs)                         integer file
    //   [int_regs, int_regs+fp_regs)          FP file
    //   then 3 int address temps, 2 int value temps, 2 fp value temps,
    //   then any overflowed virtuals.
    const Reg int_base = 0;
    const Reg fp_base = static_cast<Reg>(options_.int_regs);
    Reg next = static_cast<Reg>(options_.int_regs + options_.fp_regs);
    TempPool addr_temps{{next, static_cast<Reg>(next + 1), static_cast<Reg>(next + 2)}, 0};
    next += 3;
    TempPool int_temps{{next, static_cast<Reg>(next + 1)}, 0};
    next += 2;
    TempPool fp_temps{{next, static_cast<Reg>(next + 1)}, 0};
    next += 2;
    for (Interval* iv : overflowed_) {
      iv->assigned = next++;  // Beyond the physical file; counted already.
      iv->spilled = false;
    }

    auto physical = [&](Reg vreg) -> Reg {
      const Interval* iv = assignment_[static_cast<std::size_t>(vreg)];
      if (iv == nullptr) return vreg;  // Never-touched register.
      if (iv->spilled) return kNoReg;
      if (iv->assigned == kNoReg) return vreg;
      if (iv->is_float && iv->assigned < fp_base) {
        return static_cast<Reg>(fp_base + iv->assigned);
      }
      return static_cast<Reg>(int_base + iv->assigned);
    };

    std::vector<Insn> out;
    out.reserve(func_.insns.size());
    for (Insn insn : func_.insns) {
      addr_temps.reset();
      int_temps.reset();
      fp_temps.reset();

      auto reload = [&](Reg vreg) -> Reg {
        const Interval* iv = assignment_[static_cast<std::size_t>(vreg)];
        const Reg addr = addr_temps.take();
        const Reg value = iv->is_float ? fp_temps.take() : int_temps.take();
        out.push_back(make_slot_addr(addr, iv->slot, insn.line));
        out.push_back(
            make_spill_load(value, addr, iv->slot, iv->is_float, insn.line));
        ++stats_.spill_loads;
        return value;
      };

      auto map_use = [&](Reg& r) {
        if (r == kNoReg) return;
        const Reg phys = physical(r);
        r = phys != kNoReg ? phys : reload(r);
      };

      map_use(insn.rs1);
      map_use(insn.rs2);
      for (Reg& r : insn.args) map_use(r);
      if (insn.op == Opcode::LoopBeg && insn.induction != kNoReg) {
        const Reg phys = physical(insn.induction);
        insn.induction = phys != kNoReg ? phys : kNoReg;
      }

      const Reg rd = def_of(insn);
      if (rd != kNoReg) {
        const Interval* iv = assignment_[static_cast<std::size_t>(rd)];
        const Reg phys = physical(rd);
        if (phys != kNoReg) {
          insn.rd = phys;
          out.push_back(std::move(insn));
        } else {
          // Spilled definition: compute into a temp, store to the slot.
          const Reg value = iv->is_float ? fp_temps.take() : int_temps.take();
          insn.rd = value;
          const std::uint32_t line = insn.line;
          out.push_back(std::move(insn));
          const Reg addr = addr_temps.take();
          out.push_back(make_slot_addr(addr, iv->slot, line));
          out.push_back(
              make_spill_store(value, addr, iv->slot, iv->is_float, line));
          ++stats_.spill_stores;
        }
      } else {
        out.push_back(std::move(insn));
      }
    }
    func_.insns = std::move(out);

    // Remap the parameter staging registers.
    for (Reg& r : func_.param_regs) {
      const Reg phys = physical(r);
      if (phys != kNoReg) r = phys;
      // A spilled parameter keeps its virtual index only for the initial
      // binding; the entry rewrite above already stored it to the slot --
      // but entry binding happens BEFORE any insn, so bind to the physical
      // file is required.  Spilled params are excluded from spilling below.
    }
    func_.num_regs = std::max(func_.num_regs, next);
  }

  RtlFunction& func_;
  RegAllocOptions options_;
  RegAllocStats stats_;
  std::vector<bool> is_float_;
  std::vector<std::size_t> first_;
  std::vector<std::size_t> last_;
  std::vector<bool> unspillable_;
  std::vector<Interval> intervals_;
  std::vector<Interval*> assignment_;
  std::vector<Interval*> overflowed_;
};

}  // namespace

RegAllocStats allocate_registers(RtlFunction& func, const RegAllocOptions& options) {
  LinearScan scan(func, options);
  return scan.run();
}

}  // namespace hli::backend
