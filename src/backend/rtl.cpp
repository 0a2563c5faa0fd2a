#include "backend/rtl.hpp"

#include <charconv>

namespace hli::backend {

namespace {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::LoadImm: return "imm";
    case Opcode::Move: return "mov";
    case Opcode::Add: return "add";
    case Opcode::Sub: return "sub";
    case Opcode::Mul: return "mul";
    case Opcode::Div: return "div";
    case Opcode::Rem: return "rem";
    case Opcode::Neg: return "neg";
    case Opcode::And: return "and";
    case Opcode::Or: return "or";
    case Opcode::Xor: return "xor";
    case Opcode::Not: return "not";
    case Opcode::Shl: return "shl";
    case Opcode::Shr: return "shr";
    case Opcode::CmpLt: return "clt";
    case Opcode::CmpLe: return "cle";
    case Opcode::CmpGt: return "cgt";
    case Opcode::CmpGe: return "cge";
    case Opcode::CmpEq: return "ceq";
    case Opcode::CmpNe: return "cne";
    case Opcode::IntToFp: return "i2f";
    case Opcode::FpToInt: return "f2i";
    case Opcode::LoadAddr: return "lea";
    case Opcode::Load: return "ld";
    case Opcode::Store: return "st";
    case Opcode::Label: return "label";
    case Opcode::Jump: return "jmp";
    case Opcode::BranchZ: return "bz";
    case Opcode::BranchNZ: return "bnz";
    case Opcode::Call: return "call";
    case Opcode::Return: return "ret";
    case Opcode::LoopBeg: return "loop_beg";
    case Opcode::LoopEnd: return "loop_end";
  }
  return "?";
}

// The printer appends straight into the caller's buffer: one
// std::to_chars per number, no stream and no per-line string.  Every
// field but the frame size fits in an int64, so two formatters serve all.

void append_int(std::string& out, std::int64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void append_uint(std::string& out, std::uint64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// `%g` with six significant digits: what `operator<<` prints for a
/// double in the default stream state.
void append_fp(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 6)
                      .ptr);
}

void append_reg(std::string& out, Reg reg) {
  out += " r";
  append_int(out, reg);
}

/// Bytes reserved per instruction line; the suite averages ~26.
constexpr std::size_t kLineBytes = 32;

}  // namespace

void append_rtl(std::string& out, const Insn& insn) {
  out += opcode_name(insn.op);
  if (insn.is_float) out += ".f";
  if (insn.rd != kNoReg) append_reg(out, insn.rd);
  if (insn.rs1 != kNoReg) append_reg(out, insn.rs1);
  if (insn.rs2 != kNoReg) append_reg(out, insn.rs2);
  switch (insn.op) {
    case Opcode::LoadImm:
      out += " #";
      if (insn.is_float) {
        append_fp(out, insn.fimm);
      } else {
        append_int(out, insn.imm);
      }
      break;
    case Opcode::LoadAddr:
      out += insn.label >= 0 ? " sym" : " frame";
      append_int(out, insn.label >= 0 ? insn.label : 0);
      out += '+';
      append_int(out, insn.imm);
      break;
    case Opcode::Label:
    case Opcode::Jump:
    case Opcode::BranchZ:
    case Opcode::BranchNZ:
      out += " L";
      append_int(out, insn.label);
      break;
    case Opcode::Call:
      out += ' ';
      out += insn.callee;
      out += '(';
      for (std::size_t i = 0; i < insn.args.size(); ++i) {
        if (i != 0) out += ", ";
        out += 'r';
        append_int(out, insn.args[i]);
      }
      out += ')';
      break;
    case Opcode::Load:
    case Opcode::Store:
      if (insn.mem.base == MemBase::Symbol) {
        out += " [sym";
        append_int(out, insn.mem.symbol);
      } else {
        out += insn.mem.base == MemBase::Frame ? " [frame" : " [ptr";
      }
      out += '+';
      append_int(out, insn.mem.const_offset);
      out += " sz";
      append_int(out, insn.mem.size);
      out += ']';
      if (insn.mem.hli_item != format::kNoItem) {
        out += " item";
        append_int(out, insn.mem.hli_item);
      }
      break;
    default:
      break;
  }
  out += " @";
  append_int(out, insn.line);
}

void append_rtl(std::string& out, const RtlFunction& func) {
  out += "func ";
  out += func.name;
  out += " regs=";
  append_int(out, func.num_regs);
  out += " frame=";
  append_uint(out, func.frame_size);
  out += '\n';
  for (const Insn& insn : func.insns) {
    out += "  ";
    append_rtl(out, insn);
    out += '\n';
  }
}

std::size_t rtl_size_hint(const RtlFunction& func) {
  return (func.insns.size() + 1) * kLineBytes + func.name.size();
}

std::string to_string(const Insn& insn) {
  std::string out;
  append_rtl(out, insn);
  return out;
}

std::string to_string(const RtlFunction& func) {
  std::string out;
  out.reserve(rtl_size_hint(func));
  append_rtl(out, func);
  return out;
}

std::vector<LoopSpan> loop_spans(const RtlFunction& func) {
  std::vector<LoopSpan> spans;
  std::vector<std::size_t> open;  // Indices into `spans`.
  for (std::size_t pos = 0; pos < func.insns.size(); ++pos) {
    const Opcode op = func.insns[pos].op;
    if (op == Opcode::LoopBeg) {
      if (!open.empty()) spans[open.back()].innermost = false;
      open.push_back(spans.size());
      spans.push_back({pos, 0, true});
    } else if (op == Opcode::LoopEnd && !open.empty()) {
      spans[open.back()].end = pos;
      open.pop_back();
    }
  }
  std::erase_if(spans, [](const LoopSpan& s) { return s.end == 0; });
  return spans;
}

std::optional<CountedLoop> match_counted_loop(const RtlFunction& func,
                                              const LoopSpan& span) {
  const std::vector<Insn>& insns = func.insns;
  if (!span.innermost || span.beg + 1 >= span.end) return std::nullopt;
  CountedLoop loop;
  loop.top = span.beg + 1;
  loop.end_label = span.end - 1;
  const Insn& top = insns[loop.top];
  const Insn& end_label = insns[loop.end_label];
  if (top.op != Opcode::Label || end_label.op != Opcode::Label) {
    return std::nullopt;
  }
  // The condition is straight-line up to the exit branch.
  for (std::size_t p = loop.top + 1; p < loop.end_label; ++p) {
    const Insn& insn = insns[p];
    if (insn.op == Opcode::Label || is_branch(insn.op)) {
      if ((insn.op == Opcode::BranchZ || insn.op == Opcode::BranchNZ) &&
          insn.label == end_label.label) {
        loop.exit_branch = p;
      }
      break;
    }
  }
  if (loop.exit_branch == 0) return std::nullopt;
  // Body, Label cont, step, then the backedge right before Label end.
  for (std::size_t p = loop.exit_branch + 1; p < loop.end_label; ++p) {
    const Insn& insn = insns[p];
    if (insn.op == Opcode::Label) {
      if (loop.cont != 0) return std::nullopt;
      loop.cont = p;
    } else if (insn.op == Opcode::Jump) {
      if (insn.label != top.label || p + 1 != loop.end_label ||
          loop.cont == 0) {
        return std::nullopt;
      }
      loop.backedge = p;
    } else if (is_branch(insn.op)) {
      return std::nullopt;
    }
  }
  if (loop.backedge == 0) return std::nullopt;
  return loop;
}

}  // namespace hli::backend
