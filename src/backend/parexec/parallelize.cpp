#include "backend/parexec/parallelize.hpp"

#include <algorithm>
#include <string>

#include "analysis/irdep/analyzer.hpp"
#include "analysis/irdep/form.hpp"
#include "support/telemetry.hpp"

namespace hli::backend::parexec {

namespace {

using irdep::FunctionDepInfo;
using irdep::FunctionModel;
using irdep::LoopShape;

const telemetry::Counter c_plans_doall =
    telemetry::counter("parexec.plans_doall");
const telemetry::Counter c_plans_doacross =
    telemetry::counter("parexec.plans_doacross");
const telemetry::Counter c_plans_rejected =
    telemetry::counter("parexec.plans_rejected");

/// Pure register computation the runtime may execute speculatively (trip
/// counting) or replay (join): no memory, no control, no calls.  Div/Rem
/// are excluded too — a trapping predicate would fault during the
/// trip-count pass at a point serial execution never reaches.
bool pure_reg_op(Opcode op) {
  switch (op) {
    case Opcode::LoadImm:
    case Opcode::Move:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
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

/// Recognizes `r = r op x` integer accumulation at `pos`.  Returns true
/// and fills `out` when the shape matches; the caller still has to check
/// that r is defined/read nowhere else in the loop.
bool reduction_shape(const Insn& insn, std::uint32_t pos, ReductionPlan& out) {
  if (insn.is_float || insn.rd == kNoReg) return false;
  const Reg r = insn.rd;
  ReductionKind kind;
  switch (insn.op) {
    case Opcode::Add: kind = ReductionKind::Add; break;
    case Opcode::Sub: kind = ReductionKind::Add; break;  // r -= x: -sum(x).
    case Opcode::Mul: kind = ReductionKind::Mul; break;
    case Opcode::And: kind = ReductionKind::And; break;
    case Opcode::Or: kind = ReductionKind::Or; break;
    case Opcode::Xor: kind = ReductionKind::Xor; break;
    default: return false;
  }
  if (insn.op == Opcode::Sub) {
    // Only r = r - x accumulates; r = x - r is not associative-splittable.
    if (insn.rs1 != r || insn.rs2 == r) return false;
  } else {
    // Exactly one operand must be the accumulator.
    if ((insn.rs1 == r) == (insn.rs2 == r)) return false;
  }
  out.reg = r;
  out.kind = kind;
  out.pos = pos;
  return true;
}

/// Tries to build a plan for one canonical innermost loop.  On success
/// returns an empty reason and fills `plan`; otherwise returns why not.
std::string plan_loop(FunctionDepInfo& fdi, const RtlFunction& func,
                      const LoopShape& loop, const query::HliUnitView* view,
                      LoopPlan& plan) {
  const std::uint32_t cond_begin = loop.beg + 2;
  const std::uint32_t exit_branch = loop.body_begin - 1;
  const std::uint32_t step_begin = loop.body_end + 1;
  const std::uint32_t backedge = loop.end - 2;

  // Predicate and step regions: pure register ops only, so the runtime's
  // ahead-of-body trip counting and post-join replays are exact.
  for (std::uint32_t p = cond_begin; p < exit_branch; ++p) {
    if (!pure_reg_op(func.insns[p].op)) {
      return "cond:line" + std::to_string(func.insns[p].line);
    }
  }
  for (std::uint32_t p = step_begin; p < backedge; ++p) {
    if (!pure_reg_op(func.insns[p].op)) {
      return "step:line" + std::to_string(func.insns[p].line);
    }
  }

  const irdep::LoopVerdict verdict = irdep::loop_verdict(fdi, loop, view);

  // Body: memory ops, pure register ops, and provably memoryless IO-free
  // calls.  Control cannot occur (canonical => straight-line), but stay
  // defensive: a plan over a mis-shaped loop would corrupt execution.
  // The predicate and step hold no calls, so the loop's first impure
  // call is the body's.
  for (std::uint32_t p = loop.body_begin; p < loop.body_end; ++p) {
    const Insn& insn = func.insns[p];
    if (is_memory_op(insn.op) || pure_reg_op(insn.op) ||
        insn.op == Opcode::Div || insn.op == Opcode::Rem) {
      continue;
    }
    if (insn.op == Opcode::Call) {
      if (verdict.impure_call == p) return "impure-call:" + insn.callee;
      continue;
    }
    return "body:line" + std::to_string(insn.line);
  }

  // Register flow across iterations: the IV and every register defined
  // before its first read are already exempt (the runtime privatizes
  // them per iteration).  Recognized integer reductions are privatized
  // per chunk; any other carried register rejects the loop.  This rule
  // doubles as the trip-counting soundness proof: the predicate can only
  // read the IV, invariants, and its own earlier definitions.
  for (const irdep::CarriedReg& carried : verdict.carried_regs) {
    // A reduction is salvageable: single def, single read, both at one
    // body insn of accumulator shape.
    ReductionPlan red;
    if (carried.defs == 1 && carried.reads == 1 &&
        carried.first_def == carried.first_read &&
        carried.first_def >= loop.body_begin &&
        carried.first_def < loop.body_end &&
        reduction_shape(func.insns[carried.first_def], carried.first_def,
                        red)) {
      plan.reductions.push_back(red);
      continue;
    }
    if (func.insns[carried.first_def].is_float) {
      return "fp-recurrence:r" + std::to_string(carried.reg);
    }
    return "recurrence:r" + std::to_string(carried.reg);
  }

  // Memory: the combined column's verdict over every store-involving
  // pair — DOALL, or DOACROSS at a known minimum carried distance.
  const irdep::MemoryVerdict& memory = verdict.combined;
  if (memory.cls == irdep::LoopClass::Serial ||
      (memory.cls == irdep::LoopClass::Doacross && memory.distance < 1)) {
    return memory.reason;
  }

  plan.loop_beg = loop.beg;
  plan.loop_end = loop.end;
  plan.doall = memory.cls == irdep::LoopClass::Doall;
  plan.distance = memory.distance;
  plan.cond_begin = cond_begin;
  plan.exit_branch = exit_branch;
  plan.body_begin = loop.body_begin;
  plan.body_end = loop.body_end;
  plan.step_begin = step_begin;
  plan.backedge = backedge;
  plan.induction = loop.induction;
  plan.step = loop.step;

  // Privatized registers whose last-iteration values the join copies
  // back: everything the predicate or body defines, minus the IV and
  // accumulators (combined separately) — step-region definitions are
  // reconstructed by the final step replay instead.
  for (std::uint32_t p = cond_begin; p < loop.body_end; ++p) {
    const Reg reg = def_of(func.insns[p]);
    if (reg == kNoReg || reg == loop.induction) continue;
    const bool is_red =
        std::any_of(plan.reductions.begin(), plan.reductions.end(),
                    [reg](const ReductionPlan& r) { return r.reg == reg; });
    if (!is_red) plan.iter_defs.push_back(reg);
  }
  std::sort(plan.iter_defs.begin(), plan.iter_defs.end());
  plan.iter_defs.erase(
      std::unique(plan.iter_defs.begin(), plan.iter_defs.end()),
      plan.iter_defs.end());
  return {};
}

}  // namespace

void parallelize_function(const irdep::ProgramDepInfo& prog, RtlFunction& func,
                          const PlanOptions& options) {
  func.parexec.clear();
  FunctionDepInfo fdi(prog, func);
  const FunctionModel& model = fdi.model();

  for (const LoopShape& loop : model.loops()) {
    // Annotation target: positions shift between classification time and
    // plan time, so reports are matched by the stable loop identity
    // (region id when mapped, else function + source line).
    irdep::LoopReport* report = nullptr;
    if (options.reports != nullptr) {
      const format::RegionId region = func.insns[loop.beg].loop_region;
      const std::uint32_t line = func.insns[loop.beg].line;
      for (irdep::LoopReport& r : *options.reports) {
        if (r.function != func.name) continue;
        const bool match = region != format::kNoRegion ? r.region == region
                                                       : r.line == line;
        if (match) {
          report = &r;
          break;
        }
      }
    }

    std::string reason;
    if (!loop.innermost) {
      reason = "non-innermost";
    } else if (!loop.canonical) {
      reason = "non-canonical";
    } else {
      LoopPlan plan;
      reason = plan_loop(fdi, func, loop, options.view, plan);
      if (!reason.empty()) {
        c_plans_rejected.add();
      } else {
        (plan.doall ? c_plans_doall : c_plans_doacross).add();
        if (report != nullptr) {
          report->planned = true;
          report->plan_class = plan.doall ? irdep::LoopClass::Doall
                                          : irdep::LoopClass::Doacross;
          report->plan_distance = plan.distance;
          report->plan_reason.clear();
        }
        func.parexec.push_back(std::move(plan));
        continue;
      }
    }
    if (report != nullptr) {
      report->planned = false;
      report->plan_class = irdep::LoopClass::Serial;
      report->plan_distance = 0;
      report->plan_reason = reason;
    }
  }
}

}  // namespace hli::backend::parexec
