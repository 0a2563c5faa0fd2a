// The RTL text printer built the stream way, kept as a test-only oracle
// for backend/rtl.cpp: one std::ostringstream per instruction and per
// function, each line copied into the function's stream.  This is the
// printer the dump format was defined by; rtl_print_test.cpp requires
// the production printer to give the same bytes.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>

#include "backend/rtl.hpp"

namespace hli::backend::rtl_print_reference {

inline const char* opcode_name(Opcode op) {
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

inline std::string to_string(const Insn& insn) {
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

inline std::string to_string(const RtlFunction& func) {
  std::ostringstream out;
  out << "func " << func.name << " regs=" << func.num_regs
      << " frame=" << func.frame_size << "\n";
  for (const Insn& insn : func.insns) {
    out << "  " << rtl_print_reference::to_string(insn) << "\n";
  }
  return std::move(out).str();
}

}  // namespace hli::backend::rtl_print_reference
