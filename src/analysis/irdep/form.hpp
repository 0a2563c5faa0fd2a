// Per-function model for the independent RTL-level dependence analyzer
// (irdep): basic blocks, register definition sites, a flow-insensitive
// points-to lattice over address registers, loop shapes, and — the core
// device — linear address forms.
//
// A linear form describes the address a Load/Store computes as
//
//     object_base + constant + sum(coeff_k * reg_k)
//
// by expanding the address register through chains of single-definition
// pure instructions (LoadImm/LoadAddr/Move/Add/Sub/Neg, Mul/Shl by
// constants).  Registers with several definitions, parameters, and
// opaque values (Load/Call results, Div, float ops) become *terminal*
// symbolic terms.  Every register consumed on the way — terminals and
// intermediates — is recorded together with the instruction positions
// that read it, because soundness of comparing two forms hinges on the
// sampled register values being provably equal:
//
//  * same-iteration comparisons require, per consumed register, that all
//    read positions (across both forms) sit in one basic block with no
//    redefinition strictly between the first and last read;
//  * cross-iteration (loop-carried) tests require each form to be
//    loop-stable: terminals are either the loop's induction register
//    (read before its in-loop step) or invariant (no definition inside
//    the loop), and in-loop intermediates are read in their own block
//    after their definition.
//
// Everything here is recomputed from the current RTL on demand — no HLI
// input of any kind — so the analyzer can serve as an independent second
// opinion on the HLI tables (audit), as a DOALL/DOACROSS classifier, and
// as a no-HLI fallback oracle for the back-end passes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "backend/rtl.hpp"

namespace hli::irdep {

/// The memory object an address resolves to.  The whole frame of a
/// function is a single object: distinct slots are told apart by the
/// constant term of the form.
enum class ObjKind : std::uint8_t { Unknown, Global, Frame };

struct Object {
  ObjKind kind = ObjKind::Unknown;
  std::int32_t symbol = -1;  ///< RtlProgram::globals index for Global.
};

[[nodiscard]] inline bool known(const Object& o) {
  return o.kind != ObjKind::Unknown;
}
[[nodiscard]] inline bool same_object(const Object& a, const Object& b) {
  if (a.kind != b.kind) return false;
  return a.kind != ObjKind::Global || a.symbol == b.symbol;
}

/// Flow-insensitive points-to fact for one register: derived from no
/// address at all, from exactly one object's address, or from several /
/// statically untracked addresses (loaded pointers, call results,
/// parameters).
struct Taint {
  enum Kind : std::uint8_t { Clean, One, Many };
  Kind kind = Clean;
  Object obj;  ///< Valid for One.
};

/// One symbolic term of a linear form.
struct Term {
  backend::Reg reg = backend::kNoReg;
  std::int64_t coeff = 0;
};

/// One register consumed while expanding a form, with every instruction
/// position that read it.  Terminals carry opaque values; intermediates
/// are the single-definition pure registers the expansion looked through.
struct Use {
  backend::Reg reg = backend::kNoReg;
  bool terminal = false;
  std::uint32_t def_pos = 0;  ///< The single definition (intermediates).
  std::vector<std::uint32_t> reads;
};

struct LinearForm {
  /// True when constant+terms fully describe the address relative to the
  /// object base.  False forms still carry the object when the MemRef or
  /// the points-to lattice pinned it down.
  bool affine = false;
  Object obj;
  std::int64_t constant = 0;
  std::uint8_t size = 0;  ///< Access width in bytes.
  std::vector<Term> terms;  ///< Terminal terms, sorted by reg, coeffs != 0.
  std::vector<Use> uses;    ///< All consumed regs (terminals first-seen order).

  [[nodiscard]] std::int64_t coeff_of(backend::Reg r) const {
    for (const Term& t : terms) {
      if (t.reg == r) return t.coeff;
    }
    return 0;
  }
};

/// One loop note pair, plus the canonical For-loop shape when the RTL
/// still matches what lowering emitted (LoopBeg; Label top; cond;
/// BranchZ end; straight-line body; Label cont; step; Jump top; Label
/// end; LoopEnd) and the induction register's unique in-loop step could
/// be verified against the LoopBeg note.  Proof-grade (Must / provable
/// No) carried-dependence answers are only produced for canonical loops;
/// transformed shapes degrade to May, never to a wrong proof.
struct LoopShape {
  std::uint32_t beg = 0;  ///< LoopBeg position.
  std::uint32_t end = 0;  ///< LoopEnd position.
  bool innermost = false;

  bool canonical = false;
  std::uint32_t body_begin = 0;  ///< First insn of the unconditional body.
  std::uint32_t body_end = 0;    ///< One past it (the Label cont).
  std::uint32_t step_def = 0;    ///< The unique in-loop def of the IV.
  backend::Reg induction = backend::kNoReg;
  std::int64_t step = 0;  ///< Verified per-iteration IV delta.
  std::optional<std::int64_t> trip;
  /// IV value on loop entry, when its unique pre-loop definition sits in
  /// the LoopBeg's own basic block (so every activation runs it) and
  /// folds to a constant.  Needed to relate subscripts with *different*
  /// induction coefficients through iteration numbers.
  std::optional<std::int64_t> init;
};

class FunctionModel {
 public:
  FunctionModel(const backend::RtlProgram& prog,
                const backend::RtlFunction& func);

  [[nodiscard]] const backend::RtlFunction& func() const { return *func_; }
  [[nodiscard]] const backend::RtlProgram& prog() const { return *prog_; }

  [[nodiscard]] std::uint32_t block_of(std::size_t pos) const {
    return block_[pos];
  }
  /// Definition positions of `r`, sorted ascending (excludes the implicit
  /// entry definition of parameter registers).
  [[nodiscard]] const std::vector<std::uint32_t>& defs_of(backend::Reg r) const;
  /// Any definition of `r` strictly inside (lo, hi)?
  [[nodiscard]] bool def_in(backend::Reg r, std::size_t lo,
                            std::size_t hi) const;
  [[nodiscard]] bool is_param(backend::Reg r) const;

  [[nodiscard]] Taint taint_of(backend::Reg r) const;
  /// True when this function takes the address of `o` (LoadAddr).
  [[nodiscard]] bool addr_taken_local(const Object& o) const;

  /// Linear address form of the Load/Store at `pos` (cached).
  const LinearForm& address_form(std::size_t pos);

  /// Linear form of the value the instruction at `pos` writes to its
  /// destination (used to verify induction steps); non-affine on opaque
  /// ops.
  [[nodiscard]] LinearForm value_form(std::size_t pos) const;

  [[nodiscard]] const std::vector<LoopShape>& loops() const { return loops_; }
  /// Loop whose LoopBeg note sits at `beg_pos`; nullptr when none.
  [[nodiscard]] const LoopShape* loop_at(std::size_t beg_pos) const;

 private:
  void build_blocks();
  void build_defs();
  void build_taint();
  void build_loops();

  const backend::RtlProgram* prog_;
  const backend::RtlFunction* func_;
  std::vector<std::uint32_t> block_;
  std::vector<std::vector<std::uint32_t>> defs_;
  std::vector<bool> param_;
  std::vector<Taint> taint_;
  std::vector<bool> addr_taken_global_;
  bool addr_taken_frame_ = false;
  std::vector<LoopShape> loops_;
  std::vector<std::unique_ptr<LinearForm>> forms_;
};

}  // namespace hli::irdep
