#include "analysis/irdep/refmod.hpp"

namespace hli::irdep {

namespace {

using backend::Insn;
using backend::Opcode;

bool set_flag(bool& flag) {
  const bool was = flag;
  flag = true;
  return !was;
}

bool set_global(std::vector<bool>& set, std::int32_t sym) {
  if (sym < 0 || static_cast<std::size_t>(sym) >= set.size()) return false;
  const bool was = set[static_cast<std::size_t>(sym)];
  set[static_cast<std::size_t>(sym)] = true;
  return !was;
}

bool union_into(std::vector<bool>& dst, const std::vector<bool>& src) {
  bool changed = false;
  for (std::size_t i = 0; i < dst.size() && i < src.size(); ++i) {
    if (src[i] && !dst[i]) {
      dst[i] = true;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

bool is_io_builtin(const std::string& name) {
  return name == "emit" || name == "emitd";
}

bool is_memoryless_builtin(const std::string& name) {
  return is_io_builtin(name) || name == "sqrt" || name == "fabs" ||
         name == "sin" || name == "cos" || name == "exp" || name == "log" ||
         name == "pow" || name == "floor" || name == "ceil" || name == "atan";
}

ProgramDepInfo::ProgramDepInfo(const backend::RtlProgram& prog)
    : prog_(&prog) {
  const std::size_t nglobals = prog.globals.size();
  exposed_globals_.assign(nglobals, false);
  addr_taken_globals_.assign(nglobals, false);

  // Direct facts per function: local accesses, exposure, callees.
  for (const backend::RtlFunction& func : prog.functions) {
    FunctionModel model(prog, func);
    FnSummary& s = summaries_[func.name];
    s.ref_globals.assign(nglobals, false);
    s.mod_globals.assign(nglobals, false);

    for (std::size_t i = 0; i < nglobals; ++i) {
      if (model.addr_taken_local({ObjKind::Global,
                                  static_cast<std::int32_t>(i)})) {
        addr_taken_globals_[i] = true;
      }
    }

    auto expose = [&](backend::Reg r) {
      const Taint t = model.taint_of(r);
      if (t.kind == Taint::Clean) return;
      if (t.kind == Taint::Many) {
        wild_exposure_ = true;
        s.frame_exposed = true;
        return;
      }
      if (t.obj.kind == ObjKind::Frame) {
        s.frame_exposed = true;
      } else if (t.obj.kind == ObjKind::Global) {
        set_global(exposed_globals_, t.obj.symbol);
      }
    };

    for (std::size_t pos = 0; pos < func.insns.size(); ++pos) {
      const Insn& insn = func.insns[pos];
      switch (insn.op) {
        case Opcode::Load:
        case Opcode::Store: {
          const Object o = model.address_form(pos).obj;
          auto& direct =
              insn.op == Opcode::Load ? s.ref_globals : s.mod_globals;
          bool& wild = insn.op == Opcode::Load ? s.wild_ref : s.wild_mod;
          if (o.kind == ObjKind::Global) {
            set_global(direct, o.symbol);
          } else if (o.kind == ObjKind::Unknown) {
            wild = true;
          }
          // Own-frame accesses are invisible to callers.
          break;
        }
        case Opcode::Call:
          for (const backend::Reg r : insn.args) expose(r);
          s.callees.push_back(insn.callee);
          break;
        case Opcode::Return:
          expose(insn.rs1);
          break;
        default:
          break;
      }
      if (insn.op == Opcode::Store) expose(insn.rs2);
    }
  }

  // Transitive closure over the call graph (monotone boolean lattice).
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [name, s] : summaries_) {
      for (const std::string& callee : s.callees) {
        if (is_io_builtin(callee)) {
          if (set_flag(s.io)) changed = true;
          continue;
        }
        if (is_memoryless_builtin(callee)) continue;
        auto it = summaries_.find(callee);
        if (it == summaries_.end()) {
          // Unknown extern: assume it can do anything.
          if (!s.unknown_callee) {
            s.unknown_callee = true;
            s.wild_ref = s.wild_mod = s.io = true;
            changed = true;
          }
          continue;
        }
        const FnSummary& c = it->second;
        changed |= union_into(s.ref_globals, c.ref_globals);
        changed |= union_into(s.mod_globals, c.mod_globals);
        if (c.wild_ref && !s.wild_ref) s.wild_ref = changed = true;
        if (c.wild_mod && !s.wild_mod) s.wild_mod = changed = true;
        if (c.io && !s.io) s.io = changed = true;
        if (c.unknown_callee && !s.unknown_callee) {
          s.unknown_callee = changed = true;
        }
      }
    }
  }
}

bool ProgramDepInfo::global_exposed(std::int32_t sym) const {
  if (wild_exposure_) return true;
  return sym < 0 || static_cast<std::size_t>(sym) >= exposed_globals_.size() ||
         exposed_globals_[static_cast<std::size_t>(sym)];
}

bool ProgramDepInfo::global_wildable(std::int32_t sym) const {
  if (global_exposed(sym)) return true;
  return sym < 0 ||
         static_cast<std::size_t>(sym) >= addr_taken_globals_.size() ||
         addr_taken_globals_[static_cast<std::size_t>(sym)];
}

bool ProgramDepInfo::frame_exposed(const std::string& function) const {
  if (wild_exposure_) return true;
  const FnSummary* s = summary(function);
  return s == nullptr || s->frame_exposed;
}

bool ProgramDepInfo::wild_may_touch(const FunctionModel& model,
                                    const Object& o) const {
  switch (o.kind) {
    case ObjKind::Global:
      return global_exposed(o.symbol) || model.addr_taken_local(o);
    case ObjKind::Frame:
      return frame_exposed(model.func().name);
    case ObjKind::Unknown:
      return true;
  }
  return true;
}

const FnSummary* ProgramDepInfo::summary(const std::string& name) const {
  auto it = summaries_.find(name);
  return it == summaries_.end() ? nullptr : &it->second;
}

unsigned ProgramDepInfo::call_effect_on(const std::string& callee,
                                        const FunctionModel& caller_model,
                                        const Object& o) const {
  if (is_memoryless_builtin(callee)) return 0;
  const FnSummary* s = summary(callee);
  if (s == nullptr) {
    // Unknown extern: it can only reach objects whose addresses escape.
    if (o.kind == ObjKind::Unknown || wild_may_touch(caller_model, o)) {
      return backend::kCallReadsLoc | backend::kCallWritesLoc;
    }
    return 0;
  }
  unsigned effect = 0;
  switch (o.kind) {
    case ObjKind::Global: {
      const bool wildable = o.symbol < 0 || global_wildable(o.symbol);
      const bool direct_ref =
          o.symbol >= 0 &&
          static_cast<std::size_t>(o.symbol) < s->ref_globals.size() &&
          s->ref_globals[static_cast<std::size_t>(o.symbol)];
      const bool direct_mod =
          o.symbol >= 0 &&
          static_cast<std::size_t>(o.symbol) < s->mod_globals.size() &&
          s->mod_globals[static_cast<std::size_t>(o.symbol)];
      if (direct_ref || (s->wild_ref && wildable)) {
        effect |= backend::kCallReadsLoc;
      }
      if (direct_mod || (s->wild_mod && wildable)) {
        effect |= backend::kCallWritesLoc;
      }
      break;
    }
    case ObjKind::Frame: {
      // The callee reaches the caller's frame only through an escaped
      // pointer to it.
      const bool reachable = frame_exposed(caller_model.func().name);
      if (s->wild_ref && reachable) effect |= backend::kCallReadsLoc;
      if (s->wild_mod && reachable) effect |= backend::kCallWritesLoc;
      break;
    }
    case ObjKind::Unknown: {
      bool any_ref = s->wild_ref;
      bool any_mod = s->wild_mod;
      for (std::size_t i = 0; i < s->ref_globals.size(); ++i) {
        any_ref = any_ref || s->ref_globals[i];
        any_mod = any_mod || s->mod_globals[i];
      }
      if (any_ref) effect |= backend::kCallReadsLoc;
      if (any_mod) effect |= backend::kCallWritesLoc;
      break;
    }
  }
  return effect;
}

bool ProgramDepInfo::call_pure(const std::string& callee) const {
  if (is_io_builtin(callee)) return false;
  if (is_memoryless_builtin(callee)) return true;
  const FnSummary* s = summary(callee);
  if (s == nullptr) return false;
  if (s->wild_ref || s->wild_mod || s->io || s->unknown_callee) return false;
  for (std::size_t i = 0; i < s->ref_globals.size(); ++i) {
    if (s->ref_globals[i] || s->mod_globals[i]) return false;
  }
  return true;
}

}  // namespace hli::irdep
