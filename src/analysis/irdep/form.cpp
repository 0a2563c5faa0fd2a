#include "analysis/irdep/form.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>

namespace hli::irdep {

namespace {

using backend::def_of;
using backend::Insn;
using backend::kNoReg;
using backend::Opcode;
using backend::Reg;

/// Magnitude bound on coefficients and constants during expansion; forms
/// that would exceed it degrade to non-affine instead of overflowing.
constexpr std::int64_t kMagLimit = std::int64_t{1} << 45;

[[nodiscard]] bool in_mag(std::int64_t v) {
  return v > -kMagLimit && v < kMagLimit;
}

/// a*b when the product stays within the magnitude bound.
[[nodiscard]] std::optional<std::int64_t> checked_mul(std::int64_t a,
                                                     std::int64_t b) {
  const __int128 p = static_cast<__int128>(a) * b;
  if (p <= -static_cast<__int128>(kMagLimit) ||
      p >= static_cast<__int128>(kMagLimit)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(p);
}

Taint join(Taint a, Taint b) {
  if (a.kind == Taint::Clean) return b;
  if (b.kind == Taint::Clean) return a;
  if (a.kind == Taint::Many || b.kind == Taint::Many) return {Taint::Many, {}};
  if (same_object(a.obj, b.obj)) return a;
  return {Taint::Many, {}};
}

[[nodiscard]] bool taint_eq(Taint a, Taint b) {
  if (a.kind != b.kind) return false;
  return a.kind != Taint::One || same_object(a.obj, b.obj);
}

/// The object a LoadAddr instruction roots: label >= 0 names a global,
/// label == -1 a slot of the current frame.
[[nodiscard]] Object loadaddr_object(const Insn& insn) {
  if (insn.label >= 0) return {ObjKind::Global, insn.label};
  return {ObjKind::Frame, -1};
}

/// Expands registers into linear forms over terminal registers.
class Expander {
 public:
  explicit Expander(const FunctionModel& m) : m_(m) {}

  /// Expands `coeff * value(r)` as read at instruction `read_pos`.
  void expand(Reg r, std::int64_t coeff, std::uint32_t read_pos) {
    if (!ok_) return;
    if (r == kNoReg || ++steps_ > 200) {
      ok_ = false;
      return;
    }
    note_read(r, read_pos);
    if (m_.is_param(r) || m_.defs_of(r).size() != 1) {
      terminal(r, coeff);
      return;
    }
    const std::uint32_t d = m_.defs_of(r).front();
    mark_intermediate(r, d);
    expand_def(m_.func().insns[d], d, coeff, r);
  }

  /// Expands `coeff * value-written-by(insn at d)`.  `self` is the reg
  /// being defined (terminal fallback target), kNoReg to fail instead.
  void expand_def(const Insn& insn, std::uint32_t d, std::int64_t coeff,
                  Reg self) {
    if (!ok_) return;
    switch (insn.op) {
      case Opcode::LoadImm:
        if (insn.is_float) break;
        add_const(coeff, insn.imm);
        return;
      case Opcode::LoadAddr:
        if (coeff != 1 || have_object_) {
          ok_ = false;
          return;
        }
        have_object_ = true;
        object_ = loadaddr_object(insn);
        add_const(1, insn.imm);
        return;
      case Opcode::Move:
        expand(insn.rs1, coeff, d);
        return;
      case Opcode::Add:
        expand(insn.rs1, coeff, d);
        expand(insn.rs2, coeff, d);
        return;
      case Opcode::Sub:
        expand(insn.rs1, coeff, d);
        expand(insn.rs2, -coeff, d);
        return;
      case Opcode::Neg:
        expand(insn.rs1, -coeff, d);
        return;
      case Opcode::Mul: {
        if (insn.is_float) break;
        std::optional<std::int64_t> k = as_const(insn.rs2, 0);
        Reg var = insn.rs1;
        if (!k) {
          k = as_const(insn.rs1, 0);
          var = insn.rs2;
        }
        if (k) {
          if (*k == 0) return;  // Term vanishes.
          if (const auto scaled = checked_mul(coeff, *k)) {
            expand(var, *scaled, d);
            return;
          }
        }
        break;
      }
      case Opcode::Shl: {
        if (insn.is_float) break;
        const std::optional<std::int64_t> k = as_const(insn.rs2, 0);
        if (k && *k >= 0 && *k < 32) {
          if (const auto scaled = checked_mul(coeff, std::int64_t{1} << *k)) {
            expand(insn.rs1, *scaled, d);
            return;
          }
        }
        break;
      }
      default:
        break;
    }
    // Opaque definition (Load/Call/Div/float/...): the reg is a terminal.
    if (self == kNoReg) {
      ok_ = false;
      return;
    }
    terminal(self, coeff);
  }

  /// Moves the accumulated expansion into `out`; `ok` reports whether the
  /// form is affine.  Object/uses are transferred either way.
  void finish(LinearForm& out) {
    out.affine = ok_;
    if (have_object_) out.obj = object_;
    out.constant = constant_;
    for (const auto& [reg, coeff] : coeffs_) {
      if (coeff != 0) out.terms.push_back({reg, coeff});
    }
    for (auto& [reg, use] : uses_) {
      std::sort(use.reads.begin(), use.reads.end());
      out.uses.push_back(std::move(use));
    }
  }

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  void terminal(Reg r, std::int64_t coeff) {
    coeffs_[r] += coeff;
    if (!in_mag(coeffs_[r])) ok_ = false;
    uses_[r].terminal = true;
  }

  void note_read(Reg r, std::uint32_t pos) {
    Use& u = uses_[r];
    u.reg = r;
    u.reads.push_back(pos);
  }

  void mark_intermediate(Reg r, std::uint32_t def_pos) {
    uses_[r].def_pos = def_pos;
  }

  void add_const(std::int64_t coeff, std::int64_t v) {
    const auto scaled = checked_mul(coeff, v);
    if (!scaled || !in_mag(constant_ + *scaled)) {
      ok_ = false;
      return;
    }
    constant_ += *scaled;
  }

  /// Constant value of `r` when its single-definition chain folds; such
  /// values are position-independent, so no reads are recorded.
  [[nodiscard]] std::optional<std::int64_t> as_const(Reg r, int depth) const {
    if (r == kNoReg || depth > 40) return std::nullopt;
    if (m_.is_param(r) || m_.defs_of(r).size() != 1) return std::nullopt;
    const Insn& insn = m_.func().insns[m_.defs_of(r).front()];
    if (insn.is_float) return std::nullopt;
    switch (insn.op) {
      case Opcode::LoadImm:
        return insn.imm;
      case Opcode::Move:
        return as_const(insn.rs1, depth + 1);
      case Opcode::Neg: {
        const auto v = as_const(insn.rs1, depth + 1);
        return v ? std::optional<std::int64_t>(-*v) : std::nullopt;
      }
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul: {
        const auto a = as_const(insn.rs1, depth + 1);
        const auto b = as_const(insn.rs2, depth + 1);
        if (!a || !b || !in_mag(*a) || !in_mag(*b)) return std::nullopt;
        std::int64_t v = 0;
        if (insn.op == Opcode::Add) v = *a + *b;
        if (insn.op == Opcode::Sub) v = *a - *b;
        if (insn.op == Opcode::Mul) {
          if (std::abs(*a) > (std::int64_t{1} << 22) ||
              std::abs(*b) > (std::int64_t{1} << 22)) {
            return std::nullopt;
          }
          v = *a * *b;
        }
        return in_mag(v) ? std::optional<std::int64_t>(v) : std::nullopt;
      }
      default:
        return std::nullopt;
    }
  }

  const FunctionModel& m_;
  bool ok_ = true;
  int steps_ = 0;
  bool have_object_ = false;
  Object object_;
  std::int64_t constant_ = 0;
  std::map<Reg, std::int64_t> coeffs_;
  std::map<Reg, Use> uses_;
};

}  // namespace

FunctionModel::FunctionModel(const backend::RtlProgram& prog,
                             const backend::RtlFunction& func)
    : prog_(&prog), func_(&func) {
  build_blocks();
  build_defs();
  build_taint();
  build_loops();
  forms_.resize(func.insns.size());
}

void FunctionModel::build_blocks() {
  block_.resize(func_->insns.size());
  std::uint32_t b = 0;
  for (std::size_t pos = 0; pos < func_->insns.size(); ++pos) {
    const Opcode op = func_->insns[pos].op;
    if (op == Opcode::Label) ++b;  // A label starts a new block.
    block_[pos] = b;
    if (backend::is_branch(op)) ++b;  // A branch ends the current one.
  }
}

void FunctionModel::build_defs() {
  defs_.resize(static_cast<std::size_t>(std::max(func_->num_regs, Reg{0})));
  param_.assign(defs_.size(), false);
  for (const Reg r : func_->param_regs) {
    if (r >= 0 && static_cast<std::size_t>(r) < param_.size()) {
      param_[static_cast<std::size_t>(r)] = true;
    }
  }
  for (std::size_t pos = 0; pos < func_->insns.size(); ++pos) {
    const Reg rd = def_of(func_->insns[pos]);
    if (rd >= 0 && static_cast<std::size_t>(rd) < defs_.size()) {
      defs_[static_cast<std::size_t>(rd)].push_back(
          static_cast<std::uint32_t>(pos));
    }
  }
}

const std::vector<std::uint32_t>& FunctionModel::defs_of(Reg r) const {
  static const std::vector<std::uint32_t> kEmpty;
  if (r < 0 || static_cast<std::size_t>(r) >= defs_.size()) return kEmpty;
  return defs_[static_cast<std::size_t>(r)];
}

bool FunctionModel::def_in(Reg r, std::size_t lo, std::size_t hi) const {
  const auto& defs = defs_of(r);
  auto it = std::upper_bound(defs.begin(), defs.end(),
                             static_cast<std::uint32_t>(lo));
  return it != defs.end() && *it < hi;
}

bool FunctionModel::is_param(Reg r) const {
  return r >= 0 && static_cast<std::size_t>(r) < param_.size() &&
         param_[static_cast<std::size_t>(r)];
}

Taint FunctionModel::taint_of(Reg r) const {
  if (r < 0 || static_cast<std::size_t>(r) >= taint_.size()) {
    return {Taint::Many, {}};
  }
  return taint_[static_cast<std::size_t>(r)];
}

bool FunctionModel::addr_taken_local(const Object& o) const {
  if (o.kind == ObjKind::Frame) return addr_taken_frame_;
  if (o.kind == ObjKind::Global && o.symbol >= 0 &&
      static_cast<std::size_t>(o.symbol) < addr_taken_global_.size()) {
    return addr_taken_global_[static_cast<std::size_t>(o.symbol)];
  }
  return true;  // Unknown objects: assume reachable.
}

void FunctionModel::build_taint() {
  taint_.assign(defs_.size(), Taint{});
  addr_taken_global_.assign(prog_->globals.size(), false);
  for (std::size_t i = 0; i < param_.size(); ++i) {
    if (param_[i]) taint_[i] = {Taint::Many, {}};
  }
  // Monotone fixpoint: each register climbs Clean -> One -> Many at most
  // twice, so the sweep count is bounded.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Insn& insn : func_->insns) {
      const Reg rd = def_of(insn);
      if (rd < 0 || static_cast<std::size_t>(rd) >= taint_.size()) continue;
      Taint in{};
      switch (insn.op) {
        case Opcode::LoadImm:
        case Opcode::CmpLt:
        case Opcode::CmpLe:
        case Opcode::CmpGt:
        case Opcode::CmpGe:
        case Opcode::CmpEq:
        case Opcode::CmpNe:
          in = {Taint::Clean, {}};
          break;
        case Opcode::LoadAddr: {
          const Object o = loadaddr_object(insn);
          in = {Taint::One, o};
          if (o.kind == ObjKind::Frame) {
            addr_taken_frame_ = true;
          } else if (o.symbol >= 0 && static_cast<std::size_t>(o.symbol) <
                                          addr_taken_global_.size()) {
            addr_taken_global_[static_cast<std::size_t>(o.symbol)] = true;
          }
          break;
        }
        case Opcode::Load:
        case Opcode::Call:
          in = {Taint::Many, {}};
          break;
        default:
          in = join(taint_of(insn.rs1), taint_of(insn.rs2));
          break;
      }
      const Taint merged =
          join(taint_[static_cast<std::size_t>(rd)], in);
      if (!taint_eq(merged, taint_[static_cast<std::size_t>(rd)])) {
        taint_[static_cast<std::size_t>(rd)] = merged;
        changed = true;
      }
    }
  }
}

LinearForm FunctionModel::value_form(std::size_t pos) const {
  LinearForm out;
  const Insn& insn = func_->insns[pos];
  if (def_of(insn) == kNoReg) return out;
  Expander ex(*this);
  ex.expand_def(insn, static_cast<std::uint32_t>(pos), 1, kNoReg);
  ex.finish(out);
  return out;
}

const LinearForm& FunctionModel::address_form(std::size_t pos) {
  if (forms_[pos] != nullptr) return *forms_[pos];
  auto form = std::make_unique<LinearForm>();
  const Insn& insn = func_->insns[pos];
  form->size = insn.mem.size;

  Expander ex(*this);
  ex.expand(insn.rs1, 1, static_cast<std::uint32_t>(pos));
  ex.finish(*form);
  form->constant += insn.mem.const_offset;
  if (!in_mag(form->constant)) form->affine = false;

  // Reconcile with what lowering recorded and with the points-to fact of
  // the address register: the MemRef's static base and a One-object
  // taint can pin the object even when the expansion could not.
  Object claimed;
  if (insn.mem.base == backend::MemBase::Symbol) {
    claimed = {ObjKind::Global, insn.mem.symbol};
  } else if (insn.mem.base == backend::MemBase::Frame) {
    claimed = {ObjKind::Frame, -1};
  } else {
    const Taint t = taint_of(insn.rs1);
    if (t.kind == Taint::One) claimed = t.obj;
  }
  if (known(form->obj) && known(claimed) &&
      !same_object(form->obj, claimed)) {
    // Lowering and the expansion disagree about the object — trust
    // neither.
    form->obj = {};
    form->affine = false;
  } else if (!known(form->obj)) {
    form->obj = claimed;
  }
  forms_[pos] = std::move(form);
  return *forms_[pos];
}

void FunctionModel::build_loops() {
  const std::vector<backend::LoopSpan> spans = backend::loop_spans(*func_);
  loops_.reserve(spans.size());
  for (const backend::LoopSpan& span : spans) {
    LoopShape& loop = loops_.emplace_back();
    loop.beg = static_cast<std::uint32_t>(span.beg);
    loop.end = static_cast<std::uint32_t>(span.end);
    loop.innermost = span.innermost;

    const Insn& beg = func_->insns[loop.beg];
    if (beg.induction == kNoReg) continue;
    const std::optional<backend::CountedLoop> skeleton =
        backend::match_counted_loop(*func_, span);
    if (!skeleton) continue;

    // The induction register must have exactly one definition inside the
    // loop, in the step region, and its value form must be iv + step
    // with the iv sampled before the step itself.
    const Reg iv = beg.induction;
    std::uint32_t step_def = 0;
    std::size_t in_loop_defs = 0;
    for (const std::uint32_t d : defs_of(iv)) {
      if (d > loop.beg && d < loop.end) {
        ++in_loop_defs;
        step_def = d;
      }
    }
    if (in_loop_defs != 1 || step_def <= skeleton->cont ||
        step_def >= skeleton->backedge) {
      continue;
    }
    const LinearForm step = value_form(step_def);
    if (!step.affine || known(step.obj) || step.terms.size() != 1 ||
        step.terms[0].reg != iv || step.terms[0].coeff != 1 ||
        step.constant != beg.loop_step || beg.loop_step == 0) {
      continue;
    }
    bool iv_reads_ok = true;
    for (const Use& u : step.uses) {
      if (u.reg != iv) continue;
      for (const std::uint32_t r : u.reads) {
        if (r <= loop.beg || r >= step_def) iv_reads_ok = false;
      }
    }
    if (!iv_reads_ok) continue;

    loop.canonical = true;
    loop.body_begin = static_cast<std::uint32_t>(skeleton->exit_branch + 1);
    loop.body_end = static_cast<std::uint32_t>(skeleton->cont);
    loop.step_def = step_def;
    loop.induction = iv;
    loop.step = beg.loop_step;
    loop.trip = beg.trip_count;

    // Initial IV value: with exactly one other definition, placed before
    // the LoopBeg in its own basic block (no label in between, so every
    // path into the loop executes it last) and folding to a constant, the
    // value entering iteration 0 is known.
    const std::vector<std::uint32_t>& iv_defs = defs_of(iv);
    if (iv_defs.size() == 2) {
      const std::uint32_t d0 = iv_defs[0] == step_def ? iv_defs[1] : iv_defs[0];
      if (d0 < loop.beg && block_of(d0) == block_of(loop.beg)) {
        const LinearForm entry = value_form(d0);
        if (entry.affine && !known(entry.obj) && entry.terms.empty()) {
          loop.init = entry.constant;
        }
      }
    }
  }
}

const LoopShape* FunctionModel::loop_at(std::size_t beg_pos) const {
  for (const LoopShape& loop : loops_) {
    if (loop.beg == beg_pos) return &loop;
  }
  return nullptr;
}

}  // namespace hli::irdep
