#include "backend/rtl.hpp"

#include <sstream>

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

}  // namespace

std::string to_string(const Insn& insn) {
  std::ostringstream out;
  out << opcode_name(insn.op);
  if (insn.is_float) out << ".f";
  if (insn.rd != kNoReg) out << " r" << insn.rd;
  if (insn.rs1 != kNoReg) out << " r" << insn.rs1;
  if (insn.rs2 != kNoReg) out << " r" << insn.rs2;
  switch (insn.op) {
    case Opcode::LoadImm:
      out << (insn.is_float ? " #" : " #");
      if (insn.is_float) {
        out << insn.fimm;
      } else {
        out << insn.imm;
      }
      break;
    case Opcode::LoadAddr:
      out << (insn.label >= 0 ? " sym" : " frame") << (insn.label >= 0 ? insn.label : 0)
          << "+" << insn.imm;
      break;
    case Opcode::Label:
    case Opcode::Jump:
    case Opcode::BranchZ:
    case Opcode::BranchNZ:
      out << " L" << insn.label;
      break;
    case Opcode::Call:
      out << " " << insn.callee << "(";
      for (std::size_t i = 0; i < insn.args.size(); ++i) {
        if (i != 0) out << ", ";
        out << "r" << insn.args[i];
      }
      out << ")";
      break;
    case Opcode::Load:
    case Opcode::Store:
      out << " [" << (insn.mem.base == MemBase::Symbol
                          ? "sym" + std::to_string(insn.mem.symbol)
                          : insn.mem.base == MemBase::Frame ? "frame" : "ptr")
          << "+" << insn.mem.const_offset << " sz" << int(insn.mem.size) << "]";
      if (insn.mem.hli_item != format::kNoItem) out << " item" << insn.mem.hli_item;
      break;
    default:
      break;
  }
  out << " @" << insn.line;
  return std::move(out).str();
}

std::string to_string(const RtlFunction& func) {
  std::ostringstream out;
  out << "func " << func.name << " regs=" << func.num_regs
      << " frame=" << func.frame_size << "\n";
  for (const Insn& insn : func.insns) {
    out << "  " << to_string(insn) << "\n";
  }
  return std::move(out).str();
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
