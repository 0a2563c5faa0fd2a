// RTL-like low-level IR — the back-end's view of the program, modeled on
// GCC 2.7's RTL chains (paper §3): a linear list of instructions over
// unlimited virtual registers, with labels/branches for control flow and
// loop notes (GCC's NOTE_INSN_LOOP_BEG/END) bracketing loops.
//
// Memory references carry the little local information GCC has for its own
// disambiguation (base symbol when statically known, constant offset when
// it folds) plus, after mapping, the HLI item ID — the (IRInsn, RefSpec)
// pair of §3.2.1 with RefSpec trivially 0 since each insn holds at most
// one memory reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "backend/parexec/plan.hpp"
#include "hli/format.hpp"

namespace hli::backend {

using Reg = std::int32_t;
inline constexpr Reg kNoReg = -1;

enum class Opcode : std::uint8_t {
  // Values.
  LoadImm,   ///< rd = imm (int) or fimm (float).
  Move,      ///< rd = rs1.
  // Integer/float arithmetic (is_float selects the unit).
  Add, Sub, Mul, Div, Rem, Neg,
  And, Or, Xor, Not, Shl, Shr,
  // Comparisons produce an int 0/1 in rd.
  CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe,
  // Conversions.
  IntToFp,   ///< rd(f) = (double) rs1(i).
  FpToInt,   ///< rd(i) = (int) rs1(f).
  // Memory.
  LoadAddr,  ///< rd = address of a symbol or frame slot (+ const offset).
  Load,      ///< rd = MEM[rs1 + mem.const_offset].
  Store,     ///< MEM[rs1 + mem.const_offset] = rs2.
  // Control.
  Label,     ///< Pseudo-insn: label_id.
  Jump,      ///< Unconditional goto label_id.
  BranchZ,   ///< if (rs1 == 0) goto label_id.
  BranchNZ,  ///< if (rs1 != 0) goto label_id.
  Call,      ///< rd = callee(args...); args pre-moved to arg slots.
  Return,    ///< Return rs1 (kNoReg for void).
  // Structure notes (GCC-style).
  LoopBeg,   ///< Start of a loop body; carries HLI region + induction info.
  LoopEnd,
};

[[nodiscard]] constexpr bool is_memory_op(Opcode op) {
  return op == Opcode::Load || op == Opcode::Store;
}
[[nodiscard]] constexpr bool is_branch(Opcode op) {
  return op == Opcode::Jump || op == Opcode::BranchZ || op == Opcode::BranchNZ ||
         op == Opcode::Return;
}
/// Labels, branches, returns and loop notes: the opcodes that end a
/// straight-line run.  None of them defines a register.
[[nodiscard]] constexpr bool is_control(Opcode op) {
  return op == Opcode::Label || is_branch(op) || op == Opcode::LoopBeg ||
         op == Opcode::LoopEnd;
}

/// What the back-end knows locally about a memory reference's address.
enum class MemBase : std::uint8_t {
  Symbol,   ///< A named global object.
  Frame,    ///< A slot in the current function's frame.
  Pointer,  ///< Through a computed pointer: statically unknown object.
};

struct MemRef {
  MemBase base = MemBase::Pointer;
  /// Global symbol index (into RtlProgram::globals) for MemBase::Symbol.
  std::int32_t symbol = -1;
  /// Frame byte offset of the slot for MemBase::Frame.
  std::int64_t frame_offset = 0;
  /// Constant byte offset from the base when known.
  std::int64_t const_offset = 0;
  bool offset_known = false;
  std::uint8_t size = 4;  ///< Access width in bytes.
  /// HLI item mapped to this reference (0 until mapping).
  format::ItemId hli_item = format::kNoItem;
};

struct Insn {
  Opcode op = Opcode::LoadImm;
  bool is_float = false;
  Reg rd = kNoReg;
  Reg rs1 = kNoReg;
  Reg rs2 = kNoReg;
  std::int64_t imm = 0;
  double fimm = 0.0;
  std::int32_t label = -1;      ///< Label id for Label/Jump/Branch*.
  std::uint32_t line = 0;       ///< Source line (the HLI mapping key).

  MemRef mem;                   ///< Valid for Load/Store.

  // Call fields.
  std::string callee;
  std::vector<Reg> args;        ///< Argument registers, left to right.
  format::ItemId hli_item = format::kNoItem;  ///< Mapped call item.

  // Loop note fields (LoopBeg).
  format::RegionId loop_region = format::kNoRegion;
  Reg induction = kNoReg;       ///< Induction vreg; kNoReg if unknown.
  std::int64_t loop_step = 0;
  std::optional<std::int64_t> trip_count;
};

/// The register `insn` defines, or kNoReg (Store and control ops).
[[nodiscard]] inline Reg def_of(const Insn& insn) {
  return insn.op == Opcode::Store || is_control(insn.op) ? kNoReg : insn.rd;
}

/// Calls `fn(reg)` for every register `insn` reads, in operand order:
/// rs1, rs2, then a Call's arguments.  No opcode sets an operand field it
/// does not use, so this walk is exact for every opcode.
template <typename Fn>
void for_each_read(const Insn& insn, Fn&& fn) {
  if (insn.rs1 != kNoReg) fn(insn.rs1);
  if (insn.rs2 != kNoReg) fn(insn.rs2);
  if (insn.op == Opcode::Call) {
    for (const Reg r : insn.args) fn(r);
  }
}

struct GlobalVar {
  std::string name;
  std::uint64_t size = 0;        ///< Bytes.
  bool is_float_elem = false;    ///< Element interpretation for dumps.
  std::vector<std::int64_t> init_int;   ///< Optional scalar int init.
  std::vector<double> init_fp;          ///< Optional scalar fp init.
};

struct RtlFunction {
  std::string name;
  std::vector<Insn> insns;
  Reg num_regs = 0;
  std::uint64_t frame_size = 0;
  std::vector<Reg> param_regs;   ///< Where lowering placed the formals.
  std::vector<bool> param_is_float;
  bool returns_float = false;
  /// Parallel execution plans (backend::parallelize, exec_threads > 1):
  /// pure annotations over the FINAL instruction stream — never part of
  /// RTL dumps, never consulted unless the interpreter runs threaded.
  std::vector<LoopPlan> parexec;

  [[nodiscard]] Reg fresh_reg() { return num_regs++; }
};

struct RtlProgram {
  std::vector<GlobalVar> globals;
  std::vector<RtlFunction> functions;

  [[nodiscard]] const RtlFunction* find_function(const std::string& name) const {
    for (const auto& f : functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
  [[nodiscard]] RtlFunction* find_function(const std::string& name) {
    for (auto& f : functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
  [[nodiscard]] std::int32_t find_global(const std::string& name) const {
    for (std::size_t i = 0; i < globals.size(); ++i) {
      if (globals[i].name == name) return static_cast<std::int32_t>(i);
    }
    return -1;
  }
};

/// One matched LoopBeg/LoopEnd note pair.
struct LoopSpan {
  std::size_t beg = 0;  ///< LoopBeg position.
  std::size_t end = 0;  ///< Matching LoopEnd position.
  bool innermost = true;  ///< No loop note pair nested inside.
};

/// Every matched loop note pair of `func`, in LoopBeg order.  Unmatched
/// notes (never produced by lowering) belong to no span.
[[nodiscard]] std::vector<LoopSpan> loop_spans(const RtlFunction& func);

/// Positions of the counted-loop skeleton lowering emits for a `for`:
///
///   LoopBeg; Label top; <cond>; BranchZ/NZ end; <body>; Label cont;
///   <step>; Jump top; Label end; LoopEnd
///
/// with no other label or branch anywhere inside.
struct CountedLoop {
  std::size_t top = 0;          ///< Label top (LoopBeg + 1).
  std::size_t exit_branch = 0;  ///< The branch to Label end.
  std::size_t cont = 0;         ///< Label cont, between body and step.
  std::size_t backedge = 0;     ///< Jump top.
  std::size_t end_label = 0;    ///< Label end (LoopEnd - 1).
};

/// The skeleton of an innermost `span`, or nullopt when its instructions
/// no longer have that shape.  Callers add their own conditions (trip
/// count, exit polarity, induction step).
[[nodiscard]] std::optional<CountedLoop> match_counted_loop(
    const RtlFunction& func, const LoopSpan& span);

/// The RTL text dump: `hlic --dump-rtl`, the service's RtlDump field and
/// the golden tests.  `append_rtl` writes one instruction (no newline) or
/// one function (a header line, then each instruction indented, every
/// line newline-terminated) onto the end of `out`; `to_string` returns
/// the same text.  `rtl_size_hint` is the bytes to reserve for a function.
void append_rtl(std::string& out, const Insn& insn);
void append_rtl(std::string& out, const RtlFunction& func);
[[nodiscard]] std::size_t rtl_size_hint(const RtlFunction& func);
[[nodiscard]] std::string to_string(const Insn& insn);
[[nodiscard]] std::string to_string(const RtlFunction& func);

}  // namespace hli::backend
