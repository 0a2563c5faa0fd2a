#include "backend/parexec/parallelize.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "analysis/irdep/analyzer.hpp"
#include "analysis/irdep/form.hpp"
#include "support/telemetry.hpp"

namespace hli::backend::parexec {

namespace {

using irdep::Dep;
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

struct Rejection {
  std::string reason;
  explicit operator bool() const { return !reason.empty(); }
};

std::string pair_reason(const char* what, const Insn& a, const Insn& b) {
  std::ostringstream out;
  out << what << ":line" << a.line << "~line" << b.line;
  return out.str();
}

/// Tries to build a plan for one canonical innermost loop.  On success
/// returns an empty Rejection and fills `plan`.
Rejection plan_loop(const irdep::ProgramDepInfo& prog, FunctionDepInfo& fdi,
                    const RtlFunction& func, const LoopShape& loop,
                    const query::HliUnitView* view, LoopPlan& plan) {
  const std::uint32_t cond_begin = loop.beg + 2;
  const std::uint32_t exit_branch = loop.body_begin - 1;
  const std::uint32_t step_begin = loop.body_end + 1;
  const std::uint32_t backedge = loop.end - 2;

  // Predicate and step regions: pure register ops only, so the runtime's
  // ahead-of-body trip counting and post-join replays are exact.
  for (std::uint32_t p = cond_begin; p < exit_branch; ++p) {
    if (!pure_reg_op(func.insns[p].op)) {
      return {"cond:line" + std::to_string(func.insns[p].line)};
    }
  }
  for (std::uint32_t p = step_begin; p < backedge; ++p) {
    if (!pure_reg_op(func.insns[p].op)) {
      return {"step:line" + std::to_string(func.insns[p].line)};
    }
  }

  // Body: memory ops, pure register ops, and provably memoryless IO-free
  // calls.  Control cannot occur (canonical => straight-line), but stay
  // defensive: a plan over a mis-shaped loop would corrupt execution.
  for (std::uint32_t p = loop.body_begin; p < loop.body_end; ++p) {
    const Insn& insn = func.insns[p];
    if (is_memory_op(insn.op) || pure_reg_op(insn.op) ||
        insn.op == Opcode::Div || insn.op == Opcode::Rem) {
      continue;
    }
    if (insn.op == Opcode::Call) {
      if (!prog.call_pure(insn.callee)) {
        return {"impure-call:" + insn.callee};
      }
      continue;
    }
    return {"body:line" + std::to_string(insn.line)};
  }

  // Register flow across iterations.  For every register both defined
  // and read in the loop, require def-before-read in position order
  // (positions == execution order inside one canonical iteration), with
  // two exemptions: the IV (the runtime privatizes it per iteration) and
  // recognized integer reductions (privatized per chunk).  This rule
  // doubles as the trip-counting soundness proof: the predicate can only
  // read the IV, invariants, and its own earlier definitions.
  struct RegInfo {
    std::uint32_t min_def = UINT32_MAX;
    std::uint32_t min_read = UINT32_MAX;
    std::uint32_t defs = 0;
    std::uint32_t reads = 0;
  };
  std::map<Reg, RegInfo> reg_info;
  for (std::uint32_t p = loop.beg + 1; p < loop.end; ++p) {
    const Insn& insn = func.insns[p];
    const Reg rd = def_of(insn);
    if (rd != kNoReg) {
      auto& info = reg_info[rd];
      info.min_def = std::min(info.min_def, p);
      ++info.defs;
    }
    for_each_read(insn, [&](Reg r) {
      auto& info = reg_info[r];
      info.min_read = std::min(info.min_read, p);
      ++info.reads;
    });
  }
  for (const auto& [reg, info] : reg_info) {
    if (info.min_def == UINT32_MAX || info.min_read == UINT32_MAX) continue;
    if (reg == loop.induction) continue;
    if (info.min_def < info.min_read) continue;
    // Carried register value.  A reduction is salvageable: single def,
    // single read, both at one body insn of accumulator shape.
    ReductionPlan red;
    if (info.defs == 1 && info.reads == 1 && info.min_def == info.min_read &&
        info.min_def >= loop.body_begin && info.min_def < loop.body_end &&
        reduction_shape(func.insns[info.min_def], info.min_def, red)) {
      plan.reductions.push_back(red);
      continue;
    }
    if (func.insns[info.min_def].is_float) {
      return {"fp-recurrence:r" + std::to_string(reg)};
    }
    return {"recurrence:r" + std::to_string(reg)};
  }

  // Memory: every store-involving pair must be proven independent across
  // iterations (DOALL) or have a known minimum carried distance
  // (DOACROSS).  Facts union: analyzer answer, refined by HLI when the
  // pair maps to items (each is a sound lower bound; take the larger).
  const format::RegionId region = func.insns[loop.beg].loop_region;
  bool any_carried = false;
  std::int64_t min_distance = 0;
  std::vector<std::uint32_t> mems;
  for (std::uint32_t p = loop.beg + 1; p < loop.end; ++p) {
    if (is_memory_op(func.insns[p].op)) mems.push_back(p);
  }
  for (std::size_t i = 0; i < mems.size(); ++i) {
    for (std::size_t j = i; j < mems.size(); ++j) {
      const Insn& ia = func.insns[mems[i]];
      const Insn& ib = func.insns[mems[j]];
      if (ia.op != Opcode::Store && ib.op != Opcode::Store) continue;
      const irdep::CarriedDep cd = fdi.carried(loop.beg, mems[i], mems[j]);
      if (cd.dep == Dep::No) continue;
      irdep::HliCarried hc;
      if (view != nullptr) {
        hc = irdep::hli_carried(*view, region, ia.mem.hli_item,
                                ib.mem.hli_item);
      }
      if (hc.answered && hc.none) continue;
      std::int64_t d = 0;
      if (cd.distance_known) d = cd.min_distance;
      if (hc.answered && hc.distance_known) d = std::max(d, hc.min_distance);
      if (d < 1) return {pair_reason("may-dep", ia, ib)};
      if (!any_carried || d < min_distance) min_distance = d;
      any_carried = true;
    }
  }

  plan.loop_beg = loop.beg;
  plan.loop_end = loop.end;
  plan.doall = !any_carried;
  plan.distance = any_carried ? min_distance : 0;
  plan.cond_begin = cond_begin;
  plan.exit_branch = exit_branch;
  plan.body_begin = loop.body_begin;
  plan.body_end = loop.body_end;
  plan.step_begin = step_begin;
  plan.backedge = backedge;
  plan.induction = loop.induction;
  plan.step = loop.step;

  // Privatized registers whose last-iteration values the join copies
  // back: everything the predicate or body defines, minus accumulators
  // (combined separately) — step-region definitions are reconstructed by
  // the final step replay instead.
  for (const auto& [reg, info] : reg_info) {
    if (info.min_def == UINT32_MAX) continue;
    if (info.min_def >= plan.cond_begin && info.min_def < plan.body_end &&
        reg != loop.induction) {
      const bool is_red =
          std::any_of(plan.reductions.begin(), plan.reductions.end(),
                      [reg](const ReductionPlan& r) { return r.reg == reg; });
      if (!is_red) plan.iter_defs.push_back(reg);
    }
  }
  std::sort(plan.iter_defs.begin(), plan.iter_defs.end());
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
      const Rejection rejected =
          plan_loop(prog, fdi, func, loop, options.view, plan);
      if (rejected) {
        reason = rejected.reason;
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
