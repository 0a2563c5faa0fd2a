#include "analysis/irdep/classify.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/telemetry.hpp"

namespace hli::irdep {

namespace {

using backend::Insn;
using backend::Opcode;

const telemetry::Counter c_loops_total = telemetry::counter("irdep.loops_total");
const telemetry::Counter c_loops_doall = telemetry::counter("irdep.loops_doall");
const telemetry::Counter c_loops_doacross =
    telemetry::counter("irdep.loops_doacross");
const telemetry::Counter c_loops_serial =
    telemetry::counter("irdep.loops_serial");
const telemetry::Counter c_loops_upgraded =
    telemetry::counter("irdep.loops_upgraded");

int rank(LoopClass c) {
  switch (c) {
    case LoopClass::Serial:
      return 0;
    case LoopClass::Doacross:
      return 1;
    case LoopClass::Doall:
      return 2;
  }
  return 0;
}

std::string pair_reason(const char* what, const Insn& a, const Insn& b) {
  std::ostringstream out;
  out << what << ":line" << a.line << "~line" << b.line;
  return out.str();
}

/// Folds a pair with no distance bound into `v`: SERIAL, and the first
/// such pair is the reason.
void block(MemoryVerdict& v, const Insn& a, const Insn& b) {
  if (v.cls != LoopClass::Serial) {
    v = {LoopClass::Serial, 0, pair_reason("may-dep", a, b)};
  }
}

/// Folds a pair carried at distances >= `d` into `v`.
void carry(MemoryVerdict& v, std::int64_t d, const Insn& a, const Insn& b) {
  if (v.cls == LoopClass::Doall) {
    v = {LoopClass::Doacross, d, pair_reason("carried", a, b)};
  } else if (v.cls == LoopClass::Doacross) {
    v.distance = std::min(v.distance, d);
  }
}

/// One report column: an impure call (its effects are per-class, not
/// per-iteration, so no column can order them across iterations) or a
/// blocking memory pair makes it SERIAL.  Otherwise every carried
/// register is a distance-1 dependence — HLI has no facts about virtual
/// registers, so both columns keep it — next to the pairs' distances.
MemoryVerdict column(const LoopVerdict& verdict, const MemoryVerdict& memory,
                     const backend::RtlFunction& func) {
  if (verdict.impure_call) {
    return {LoopClass::Serial, 0,
            "impure-call:" + func.insns[*verdict.impure_call].callee};
  }
  if (memory.cls == LoopClass::Serial || verdict.carried_regs.empty()) {
    return memory;
  }
  MemoryVerdict out{
      LoopClass::Doacross, 1,
      "recurrence:r" + std::to_string(verdict.carried_regs.front().reg)};
  if (memory.cls == LoopClass::Doacross) {
    out.distance = std::min(out.distance, memory.distance);
  }
  return out;
}

}  // namespace

// The LCDD table is consulted FIRST: may_conflict() answers "may these
// two references touch the same location in the same iteration" (the
// scheduler's disambiguation question), so two strided references like
// A[i] and A[i-3] are None within an iteration while still carrying a
// genuine distance-3 dependence — which the builder records as a
// cross-class LCDD entry for exactly this reason.  Only when the loop
// has NO carried facts for the pair does a None answer prove carried
// independence (the builder drops proven-None carried relations, so
// "no entry + never the same location in an iteration" is a proof).  A
// same-class pair (a store against itself in a later iteration) can
// legitimately have an empty LCDD list with a non-None conflict answer
// — that is "no claim", not "no carried dependence".
HliCarried hli_carried(const query::HliUnitView& view, format::RegionId region,
                       format::ItemId a, format::ItemId b) {
  HliCarried out;
  if (region == format::kNoRegion || a == format::kNoItem ||
      b == format::kNoItem) {
    return out;
  }
  out.answered = true;
  const std::vector<query::LcddResult> deps = view.get_lcdd(region, a, b);
  if (deps.empty()) {
    if (view.may_conflict(a, b) == query::EquivAcc::None) {
      out.none = true;
      return out;
    }
    // Same-class pair (e.g. the store and load of xm[i][j] += ...):
    // may_conflict is Definite within an iteration, but when the class's
    // footprint provably never recurs across iterations the pair carries
    // no loop dependence — the front-end's subscript view proves what
    // the RTL-level analyzer often cannot.
    const format::ItemId ca = view.class_of_at(a, region);
    if (ca != format::kNoItem && ca == view.class_of_at(b, region) &&
        view.class_iteration_disjoint(region, ca)) {
      out.none = true;
    }
    return out;
  }
  bool all_known = true;
  std::int64_t best = 0;
  bool any = false;
  for (const query::LcddResult& dep : deps) {
    if (dep.type != format::DepType::Definite || !dep.distance) {
      all_known = false;
      break;
    }
    const std::int64_t d = std::max<std::int64_t>(1, *dep.distance);
    if (!any || d < best) best = d;
    any = true;
  }
  if (all_known && any) {
    out.distance_known = true;
    out.min_distance = best;
  }
  return out;
}

LoopVerdict loop_verdict(FunctionDepInfo& fdi, const LoopShape& loop,
                         const query::HliUnitView* view) {
  const backend::RtlFunction& func = fdi.model().func();
  LoopVerdict out;
  std::vector<std::uint32_t> mems;
  std::map<backend::Reg, CarriedReg> regs;
  for (std::uint32_t p = loop.beg + 1; p < loop.end; ++p) {
    const Insn& insn = func.insns[p];
    if (backend::is_memory_op(insn.op)) {
      mems.push_back(p);
    } else if (insn.op == Opcode::Call && !out.impure_call &&
               !fdi.program().call_pure(insn.callee)) {
      out.impure_call = p;
    }
    const backend::Reg rd = backend::def_of(insn);
    if (rd != backend::kNoReg) {
      CarriedReg& info = regs[rd];
      if (info.defs++ == 0) info.first_def = p;
    }
    backend::for_each_read(insn, [&](backend::Reg r) {
      CarriedReg& info = regs[r];
      if (info.reads++ == 0) info.first_read = p;
    });
  }
  // Register recurrences.  The verified induction register of a
  // canonical loop is exempt: a parallelizing transform privatizes it.
  for (auto& [reg, info] : regs) {
    if (info.defs == 0 || info.reads == 0) continue;
    if (loop.canonical) {
      if (reg == loop.induction) continue;
      if (info.first_def < info.first_read) continue;
    }
    info.reg = reg;
    out.carried_regs.push_back(info);
  }

  // Every store-involving pair, in position order.  A combined-column
  // block implies an irdep-column block, and a SERIAL column never
  // changes again, so the scan stops at the first combined block.
  const format::RegionId region = func.insns[loop.beg].loop_region;
  const auto combined_open = [&out] {
    return out.combined.cls != LoopClass::Serial;
  };
  for (std::size_t i = 0; i < mems.size() && combined_open(); ++i) {
    for (std::size_t j = i; j < mems.size() && combined_open(); ++j) {
      const Insn& ia = func.insns[mems[i]];
      const Insn& ib = func.insns[mems[j]];
      if (ia.op != Opcode::Store && ib.op != Opcode::Store) continue;
      const CarriedDep cd = fdi.carried(loop.beg, mems[i], mems[j]);
      if (cd.dep == Dep::No) continue;
      if (cd.distance_known) {
        carry(out.irdep, cd.min_distance, ia, ib);
      } else {
        block(out.irdep, ia, ib);
      }

      // Combined column: strongest of the two fact sources.
      HliCarried hc;
      if (view != nullptr) {
        hc = hli_carried(*view, region, ia.mem.hli_item, ib.mem.hli_item);
      }
      if (hc.answered && hc.none) continue;
      if (cd.distance_known || (hc.answered && hc.distance_known)) {
        // Both are lower bounds on the real distance set; the larger
        // bound is the stronger combined claim.
        std::int64_t d = 0;
        if (cd.distance_known) d = cd.min_distance;
        if (hc.answered && hc.distance_known) d = std::max(d, hc.min_distance);
        carry(out.combined, d, ia, ib);
      } else {
        block(out.combined, ia, ib);
      }
    }
  }
  return out;
}

const char* to_string(LoopClass c) {
  switch (c) {
    case LoopClass::Doall:
      return "DOALL";
    case LoopClass::Doacross:
      return "DOACROSS";
    case LoopClass::Serial:
      return "SERIAL";
  }
  return "?";
}

std::vector<LoopReport> classify_function(const ProgramDepInfo& prog,
                                          const backend::RtlFunction& func,
                                          const query::HliUnitView* view) {
  std::vector<LoopReport> reports;
  FunctionDepInfo fdi(prog, func);
  const FunctionModel& model = fdi.model();

  for (const LoopShape& loop : model.loops()) {
    const Insn& beg = func.insns[loop.beg];
    LoopReport report;
    report.function = func.name;
    report.loop_beg = loop.beg;
    report.region = beg.loop_region;
    report.line = beg.line;
    report.innermost = loop.innermost;

    // Only innermost loops are analyzed; outer loops make no claim.
    MemoryVerdict irdep{LoopClass::Serial, 0, "non-innermost"};
    MemoryVerdict combined = irdep;
    if (loop.innermost) {
      const LoopVerdict verdict = loop_verdict(fdi, loop, view);
      irdep = column(verdict, verdict.irdep, func);
      combined = column(verdict, verdict.combined, func);
    }
    report.irdep_class = irdep.cls;
    report.irdep_distance = irdep.distance;
    report.irdep_reason = irdep.reason;
    report.combined_class = combined.cls;
    report.combined_distance = combined.distance;
    report.combined_reason = combined.reason;

    c_loops_total.add();
    switch (report.irdep_class) {
      case LoopClass::Doall:
        c_loops_doall.add();
        break;
      case LoopClass::Doacross:
        c_loops_doacross.add();
        break;
      case LoopClass::Serial:
        c_loops_serial.add();
        break;
    }
    if (rank(report.combined_class) > rank(report.irdep_class)) {
      c_loops_upgraded.add();
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

std::string render_loop_table(const std::vector<LoopReport>& reports) {
  std::ostringstream out;
  out << "function              line  irdep            combined         "
         "reason\n";
  for (const LoopReport& r : reports) {
    std::ostringstream ic;
    ic << to_string(r.irdep_class);
    if (r.irdep_class == LoopClass::Doacross) {
      ic << "(" << r.irdep_distance << ")";
    }
    std::ostringstream cc;
    cc << to_string(r.combined_class);
    if (r.combined_class == LoopClass::Doacross) {
      cc << "(" << r.combined_distance << ")";
    }
    out << r.function;
    for (std::size_t i = r.function.size(); i < 22; ++i) out << ' ';
    std::string line = std::to_string(r.line);
    out << line;
    for (std::size_t i = line.size(); i < 6; ++i) out << ' ';
    out << ic.str();
    for (std::size_t i = ic.str().size(); i < 17; ++i) out << ' ';
    out << cc.str();
    for (std::size_t i = cc.str().size(); i < 17; ++i) out << ' ';
    const std::string& why =
        r.combined_reason.empty() ? r.irdep_reason : r.combined_reason;
    out << why << "\n";
  }
  return out.str();
}

std::string render_loop_json(const std::vector<LoopReport>& reports) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const LoopReport& r = reports[i];
    if (i != 0) out << ",";
    out << "\n  {\"function\":\"" << escape(r.function) << "\""
        << ",\"line\":" << r.line << ",\"innermost\":"
        << (r.innermost ? "true" : "false") << ",\"irdep\":\""
        << to_string(r.irdep_class) << "\",\"irdep_distance\":"
        << r.irdep_distance << ",\"combined\":\""
        << to_string(r.combined_class) << "\",\"combined_distance\":"
        << r.combined_distance << ",\"reason\":\""
        << escape(r.combined_reason.empty() ? r.irdep_reason
                                            : r.combined_reason)
        << "\",\"planned\":" << (r.planned ? "true" : "false")
        << ",\"plan\":\"" << to_string(r.plan_class) << "\""
        << ",\"plan_distance\":" << r.plan_distance << ",\"plan_reason\":\""
        << escape(r.plan_reason) << "\"}";
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace hli::irdep
