#include "backend/dce.hpp"

#include <vector>

#include "support/telemetry.hpp"

namespace hli::backend {

namespace {
const telemetry::Counter c_insns_deleted =
    telemetry::counter("dce.insns_deleted");
const telemetry::Counter c_loads_deleted =
    telemetry::counter("dce.loads_deleted");
}  // namespace

void DceStats::record_telemetry() const {
  c_insns_deleted.add(deleted);
  c_loads_deleted.add(deleted_loads);
}

namespace {

/// Instructions with effects beyond their register result.
bool always_live(const Insn& insn) {
  return insn.op == Opcode::Store || insn.op == Opcode::Call ||
         is_control(insn.op);
}

}  // namespace

DceStats dce_function(RtlFunction& func, const DceOptions& options) {
  DceStats stats;
  bool changed = true;
  while (changed) {
    changed = false;
    // Use counts over the whole function (registers are not renamed per
    // block, so liveness must be global).
    std::vector<std::uint32_t> uses(static_cast<std::size_t>(func.num_regs), 0);
    auto count = [&uses](Reg r) {
      if (r != kNoReg) ++uses[static_cast<std::size_t>(r)];
    };
    for (const Insn& insn : func.insns) {
      for_each_read(insn, count);
      if (insn.op == Opcode::LoopBeg) count(insn.induction);
    }
    // Parameters stay observable (the interpreter binds into them).
    for (const Reg r : func.param_regs) count(r);

    std::vector<Insn> kept;
    kept.reserve(func.insns.size());
    for (Insn& insn : func.insns) {
      const bool dead = !always_live(insn) && insn.rd != kNoReg &&
                        uses[static_cast<std::size_t>(insn.rd)] == 0;
      if (!dead) {
        kept.push_back(std::move(insn));
        continue;
      }
      ++stats.deleted;
      if (insn.op == Opcode::Load) {
        ++stats.deleted_loads;
        if (options.on_load_deleted && insn.mem.hli_item != format::kNoItem) {
          options.on_load_deleted(insn.mem.hli_item);
        }
      }
      changed = true;
    }
    func.insns = std::move(kept);
  }
  return stats;
}

}  // namespace hli::backend
