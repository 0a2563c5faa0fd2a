#include "backend/constfold.hpp"

#include <optional>
#include <unordered_map>

#include "support/telemetry.hpp"

namespace hli::backend {

namespace {
const telemetry::Counter c_folded = telemetry::counter("constfold.folded");
const telemetry::Counter c_branches_resolved =
    telemetry::counter("constfold.branches_resolved");
}  // namespace

void ConstFoldStats::record_telemetry() const {
  c_folded.add(folded);
  c_branches_resolved.add(branches_resolved);
}

namespace {

struct ConstValue {
  bool is_float = false;
  std::int64_t i = 0;
  double f = 0.0;
};

class BlockFolder {
 public:
  explicit BlockFolder(ConstFoldStats& stats) : stats_(stats) {}

  void boundary() { known_.clear(); }

  void visit(Insn& insn) {
    if (is_control(insn.op)) {
      // A known branch condition could retarget control flow; resolving
      // it means rewriting to Jump or deleting — count the opportunity but
      // keep the branch (jump threading is out of scope).
      if ((insn.op == Opcode::BranchZ || insn.op == Opcode::BranchNZ) &&
          lookup(insn.rs1)) {
        ++stats_.branches_resolved;
      }
      boundary();
      return;
    }
    switch (insn.op) {
      case Opcode::LoadImm:
        record(insn);
        return;
      case Opcode::Move: {
        if (const auto v = lookup(insn.rs1)) {
          rewrite_to_imm(insn, *v);
        } else {
          kill(insn.rd);
        }
        return;
      }
      case Opcode::Store:
        return;  // No register defined.
      case Opcode::Call:
        kill(insn.rd);
        return;
      case Opcode::Load:
      case Opcode::LoadAddr:
        kill(insn.rd);
        return;
      default: {
        const auto a = lookup(insn.rs1);
        const auto b = lookup(insn.rs2);
        if (const auto folded = evaluate(insn, a, b)) {
          rewrite_to_imm(insn, *folded);
        } else {
          kill(insn.rd);
        }
        return;
      }
    }
  }

 private:
  [[nodiscard]] std::optional<ConstValue> lookup(Reg r) const {
    if (r == kNoReg) return std::nullopt;
    const auto it = known_.find(r);
    if (it == known_.end()) return std::nullopt;
    return it->second;
  }

  void kill(Reg r) {
    if (r != kNoReg) known_.erase(r);
  }

  void record(const Insn& insn) {
    ConstValue v;
    v.is_float = insn.is_float;
    v.i = insn.imm;
    v.f = insn.fimm;
    known_[insn.rd] = v;
  }

  void rewrite_to_imm(Insn& insn, const ConstValue& value) {
    Insn imm;
    imm.op = Opcode::LoadImm;
    imm.is_float = value.is_float;
    imm.rd = insn.rd;
    imm.imm = value.i;
    imm.fimm = value.f;
    imm.line = insn.line;
    insn = std::move(imm);
    known_[insn.rd] = value;
    ++stats_.folded;
  }

  /// Evaluates a pure operation over constants; nullopt when not foldable
  /// (unknown inputs, division by zero, trapping cases).
  [[nodiscard]] std::optional<ConstValue> evaluate(
      const Insn& insn, const std::optional<ConstValue>& a,
      const std::optional<ConstValue>& b) const {
    auto make_int = [](std::int64_t v) {
      ConstValue out;
      out.i = v;
      return out;
    };
    auto make_fp = [](double v) {
      ConstValue out;
      out.is_float = true;
      out.f = v;
      return out;
    };

    const bool unary = insn.rs2 == kNoReg;
    if (!a || (!unary && !b)) return std::nullopt;
    const std::int64_t ai = a->i;
    const std::int64_t bi = b ? b->i : 0;
    const double af = a->f;
    const double bf = b ? b->f : 0.0;

    switch (insn.op) {
      case Opcode::Add:
        return insn.is_float ? make_fp(af + bf) : make_int(ai + bi);
      case Opcode::Sub:
        return insn.is_float ? make_fp(af - bf) : make_int(ai - bi);
      case Opcode::Mul:
        return insn.is_float ? make_fp(af * bf) : make_int(ai * bi);
      case Opcode::Div:
        if (insn.is_float) return make_fp(af / bf);
        if (bi == 0) return std::nullopt;  // Keep the trap.
        return make_int(ai / bi);
      case Opcode::Rem:
        if (bi == 0) return std::nullopt;
        return make_int(ai % bi);
      case Opcode::Neg:
        return insn.is_float ? make_fp(-af) : make_int(-ai);
      case Opcode::And: return make_int(ai & bi);
      case Opcode::Or: return make_int(ai | bi);
      case Opcode::Xor: return make_int(ai ^ bi);
      case Opcode::Not: return make_int(ai == 0 ? 1 : 0);
      case Opcode::Shl: return make_int(ai << (bi & 63));
      case Opcode::Shr: return make_int(ai >> (bi & 63));
      case Opcode::CmpLt:
        return make_int(insn.is_float ? af < bf : ai < bi);
      case Opcode::CmpLe:
        return make_int(insn.is_float ? af <= bf : ai <= bi);
      case Opcode::CmpGt:
        return make_int(insn.is_float ? af > bf : ai > bi);
      case Opcode::CmpGe:
        return make_int(insn.is_float ? af >= bf : ai >= bi);
      case Opcode::CmpEq:
        return make_int(insn.is_float ? af == bf : ai == bi);
      case Opcode::CmpNe:
        return make_int(insn.is_float ? af != bf : ai != bi);
      case Opcode::IntToFp: return make_fp(static_cast<double>(ai));
      case Opcode::FpToInt: return make_int(static_cast<std::int64_t>(af));
      default:
        return std::nullopt;
    }
  }

  ConstFoldStats& stats_;
  std::unordered_map<Reg, ConstValue> known_;
};

}  // namespace

ConstFoldStats constfold_function(RtlFunction& func) {
  ConstFoldStats stats;
  BlockFolder folder(stats);
  for (Insn& insn : func.insns) {
    folder.visit(insn);
  }
  return stats;
}

}  // namespace hli::backend
