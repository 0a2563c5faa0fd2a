// The RTL text printer (backend/rtl.cpp), which `hlic --dump-rtl`, the
// service's RtlDump field, the fuzz differ and the digest goldens share.
// Its format is pinned twice: by exact strings for every operand form and
// for the float immediates whose `%g` rendering has edge cases, and
// against the stream printer it replaced (rtl_print_reference.hpp) on
// seeded random instructions and functions and on every instruction the
// suite compiles to under both presets.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "backend/rtl.hpp"
#include "driver/pipeline.hpp"
#include "rtl_print_reference.hpp"
#include "service/wire.hpp"
#include "workloads/workloads.hpp"

namespace hli::backend {
namespace {

Insn make(Opcode op, Reg rd = kNoReg, Reg rs1 = kNoReg, Reg rs2 = kNoReg) {
  Insn insn;
  insn.op = op;
  insn.rd = rd;
  insn.rs1 = rs1;
  insn.rs2 = rs2;
  insn.line = 7;
  return insn;
}

Insn float_imm(double value) {
  Insn insn = make(Opcode::LoadImm, 1);
  insn.is_float = true;
  insn.fimm = value;
  return insn;
}

Insn memory(Opcode op, MemBase base, format::ItemId item) {
  Insn insn = op == Opcode::Load ? make(op, 4, 2) : make(op, kNoReg, 2, 3);
  insn.mem.base = base;
  insn.mem.symbol = base == MemBase::Symbol ? 5 : -1;
  insn.mem.const_offset = -16;
  insn.mem.size = 8;
  insn.mem.hli_item = item;
  return insn;
}

Insn call(Reg rd, std::vector<Reg> args) {
  Insn insn = make(Opcode::Call, rd);
  insn.callee = "f";
  insn.args = std::move(args);
  return insn;
}

// -- Exact strings, as the stream printer wrote them -------------------------

TEST(RtlPrint, EveryOpcodeName) {
  const std::pair<Opcode, const char*> kNames[] = {
      {Opcode::LoadImm, "imm r1 r2 r3 #0 @7"},
      {Opcode::Move, "mov r1 r2 r3 @7"},
      {Opcode::Add, "add r1 r2 r3 @7"},
      {Opcode::Sub, "sub r1 r2 r3 @7"},
      {Opcode::Mul, "mul r1 r2 r3 @7"},
      {Opcode::Div, "div r1 r2 r3 @7"},
      {Opcode::Rem, "rem r1 r2 r3 @7"},
      {Opcode::Neg, "neg r1 r2 r3 @7"},
      {Opcode::And, "and r1 r2 r3 @7"},
      {Opcode::Or, "or r1 r2 r3 @7"},
      {Opcode::Xor, "xor r1 r2 r3 @7"},
      {Opcode::Not, "not r1 r2 r3 @7"},
      {Opcode::Shl, "shl r1 r2 r3 @7"},
      {Opcode::Shr, "shr r1 r2 r3 @7"},
      {Opcode::CmpLt, "clt r1 r2 r3 @7"},
      {Opcode::CmpLe, "cle r1 r2 r3 @7"},
      {Opcode::CmpGt, "cgt r1 r2 r3 @7"},
      {Opcode::CmpGe, "cge r1 r2 r3 @7"},
      {Opcode::CmpEq, "ceq r1 r2 r3 @7"},
      {Opcode::CmpNe, "cne r1 r2 r3 @7"},
      {Opcode::IntToFp, "i2f r1 r2 r3 @7"},
      {Opcode::FpToInt, "f2i r1 r2 r3 @7"},
      {Opcode::LoadAddr, "lea r1 r2 r3 frame0+0 @7"},
      {Opcode::Load, "ld r1 r2 r3 [ptr+0 sz4] @7"},
      {Opcode::Store, "st r1 r2 r3 [ptr+0 sz4] @7"},
      {Opcode::Label, "label r1 r2 r3 L-1 @7"},
      {Opcode::Jump, "jmp r1 r2 r3 L-1 @7"},
      {Opcode::BranchZ, "bz r1 r2 r3 L-1 @7"},
      {Opcode::BranchNZ, "bnz r1 r2 r3 L-1 @7"},
      {Opcode::Call, "call r1 r2 r3 () @7"},
      {Opcode::Return, "ret r1 r2 r3 @7"},
      {Opcode::LoopBeg, "loop_beg r1 r2 r3 @7"},
      {Opcode::LoopEnd, "loop_end r1 r2 r3 @7"},
  };
  for (const auto& [op, want] : kNames) {
    EXPECT_EQ(to_string(make(op, 1, 2, 3)), want);
  }
}

TEST(RtlPrint, OperandForms) {
  Insn fadd = make(Opcode::Add, 1, 2, 3);
  fadd.is_float = true;
  Insn imm = make(Opcode::LoadImm, 9);
  imm.imm = std::numeric_limits<std::int64_t>::min();
  Insn lea_sym = make(Opcode::LoadAddr, 1);
  lea_sym.label = 3;
  lea_sym.imm = 40;
  Insn lea_frame = make(Opcode::LoadAddr, 1);
  lea_frame.imm = -8;
  Insn branch = make(Opcode::BranchNZ, kNoReg, 6);
  branch.label = 12;
  Insn line_max = make(Opcode::Return);
  line_max.line = std::numeric_limits<std::uint32_t>::max();

  const std::pair<Insn, const char*> kForms[] = {
      {fadd, "add.f r1 r2 r3 @7"},
      {imm, "imm r9 #-9223372036854775808 @7"},
      {make(Opcode::Move, 1, 2), "mov r1 r2 @7"},
      {make(Opcode::Neg, kNoReg, kNoReg, 3), "neg r3 @7"},
      {make(Opcode::Return), "ret @7"},
      {make(Opcode::Return, kNoReg, 5), "ret r5 @7"},
      {line_max, "ret @4294967295"},
      {lea_sym, "lea r1 sym3+40 @7"},
      {lea_frame, "lea r1 frame0+-8 @7"},
      {branch, "bnz r6 L12 @7"},
      {call(kNoReg, {}), "call f() @7"},
      {call(2, {7}), "call r2 f(r7) @7"},
      {call(2, {7, 0, 11}), "call r2 f(r7, r0, r11) @7"},
      {memory(Opcode::Load, MemBase::Symbol, 0), "ld r4 r2 [sym5+-16 sz8] @7"},
      {memory(Opcode::Load, MemBase::Symbol, 31),
       "ld r4 r2 [sym5+-16 sz8] item31 @7"},
      {memory(Opcode::Load, MemBase::Frame, 0), "ld r4 r2 [frame+-16 sz8] @7"},
      {memory(Opcode::Load, MemBase::Frame, 31),
       "ld r4 r2 [frame+-16 sz8] item31 @7"},
      {memory(Opcode::Load, MemBase::Pointer, 0), "ld r4 r2 [ptr+-16 sz8] @7"},
      {memory(Opcode::Load, MemBase::Pointer, 31),
       "ld r4 r2 [ptr+-16 sz8] item31 @7"},
      {memory(Opcode::Store, MemBase::Symbol, 0), "st r2 r3 [sym5+-16 sz8] @7"},
      {memory(Opcode::Store, MemBase::Symbol, 31),
       "st r2 r3 [sym5+-16 sz8] item31 @7"},
      {memory(Opcode::Store, MemBase::Frame, 0), "st r2 r3 [frame+-16 sz8] @7"},
      {memory(Opcode::Store, MemBase::Frame, 31),
       "st r2 r3 [frame+-16 sz8] item31 @7"},
      {memory(Opcode::Store, MemBase::Pointer, 0), "st r2 r3 [ptr+-16 sz8] @7"},
      {memory(Opcode::Store, MemBase::Pointer, 31),
       "st r2 r3 [ptr+-16 sz8] item31 @7"},
  };
  for (const auto& [insn, want] : kForms) EXPECT_EQ(to_string(insn), want);
}

TEST(RtlPrint, FloatImmediatesAreSixDigitG) {
  const std::pair<double, const char*> kValues[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {-std::numeric_limits<double>::infinity(), "-inf"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {-std::numeric_limits<double>::quiet_NaN(), "-nan"},
      {5e-324, "4.94066e-324"},
      {1e21, "1e+21"},
      {1e300, "1e+300"},
      {0.1, "0.1"},
      {1.0 / 3.0, "0.333333"},
      {1e-4, "0.0001"},
      {1e-5, "1e-05"},
      {1e5, "100000"},
      {1e6, "1e+06"},
      {123456.5, "123456"},
      {999999.5, "1e+06"},
      {-2.5, "-2.5"},
  };
  for (const auto& [value, want] : kValues) {
    EXPECT_EQ(to_string(float_imm(value)),
              std::string("imm.f r1 #") + want + " @7")
        << value;
  }
}

TEST(RtlPrint, FunctionHeaderAndIndentedLines) {
  RtlFunction func;
  func.name = "main";
  func.num_regs = 4;
  func.frame_size = 16;
  func.insns = {float_imm(0.5), make(Opcode::Return, kNoReg, 1)};
  EXPECT_EQ(to_string(func),
            "func main regs=4 frame=16\n  imm.f r1 #0.5 @7\n  ret r1 @7\n");
  func.insns.clear();
  EXPECT_EQ(to_string(func), "func main regs=4 frame=16\n");
}

TEST(RtlPrint, AppendKeepsWhatTheBufferHolds) {
  RtlFunction func;
  func.name = "g";
  func.insns = {make(Opcode::Return)};
  std::string out = "head\n";
  append_rtl(out, func);
  append_rtl(out, make(Opcode::Return, kNoReg, 2));
  EXPECT_EQ(out, "head\nfunc g regs=0 frame=0\n  ret @7\nret r2 @7");
}

// -- Seeded random instructions against the stream printer --------------------

/// splitmix64: the stream, and so each seed's instructions, is the same on
/// every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(std::uint64_t num, std::uint64_t den) { return below(den) < num; }

 private:
  std::uint64_t state_;
};

/// Small values most of the time (as lowering produces), any bit pattern
/// otherwise, so both short and full-width numbers are printed.
std::uint64_t any_bits(Rng& rng) {
  return rng.chance(3, 4) ? rng.below(4096) : rng.next();
}

/// any_bits of either sign (negated in unsigned arithmetic, so INT64_MIN
/// comes up without overflow).
std::int64_t any_signed(Rng& rng) {
  const std::uint64_t bits = any_bits(rng);
  return static_cast<std::int64_t>(rng.chance(1, 2) ? 0 - bits : bits);
}

Reg any_reg(Rng& rng) {
  if (rng.chance(1, 4)) return kNoReg;
  return static_cast<Reg>(any_bits(rng) & 0x7fffffffu);
}

double any_double(Rng& rng) {
  switch (rng.below(5)) {
    case 0:  // Every class of bit pattern: subnormals, inf, nan payloads.
      return std::bit_cast<double>(rng.next());
    case 1:  // Decimal fractions, where %g rounds.
      return static_cast<double>(static_cast<std::int64_t>(rng.next() >> 20)) /
             static_cast<double>(1 + rng.below(1000000));
    case 2:  // Around the fixed/exponent switch of %g at 1e-5 and 1e6.
      return (rng.chance(1, 2) ? -1.0 : 1.0) *
             static_cast<double>(1 + rng.below(9999999)) *
             std::pow(10.0, static_cast<double>(rng.below(24)) - 12.0);
    case 3:  // Small integers.
      return static_cast<double>(rng.below(2001)) - 1000.0;
    default:  // Halfway cases at six significant digits.
      return (static_cast<double>(rng.below(2000000)) + 0.5) /
             std::pow(10.0, static_cast<double>(rng.below(8)));
  }
}

Insn random_insn(Rng& rng) {
  Insn insn;
  insn.op =
      static_cast<Opcode>(rng.below(static_cast<int>(Opcode::LoopEnd) + 1));
  insn.is_float = rng.chance(1, 2);
  insn.rd = any_reg(rng);
  insn.rs1 = any_reg(rng);
  insn.rs2 = any_reg(rng);
  insn.imm = any_signed(rng);
  insn.fimm = any_double(rng);
  insn.label = rng.chance(1, 4) ? -1 : static_cast<std::int32_t>(any_bits(rng));
  insn.line = static_cast<std::uint32_t>(any_bits(rng));
  insn.mem.base = static_cast<MemBase>(rng.below(3));
  insn.mem.symbol = static_cast<std::int32_t>(any_bits(rng));
  insn.mem.const_offset = any_signed(rng);
  insn.mem.size = static_cast<std::uint8_t>(
      rng.chance(3, 4) ? 1u << rng.below(4) : rng.below(256));
  insn.mem.hli_item = rng.chance(1, 3)
                          ? format::kNoItem
                          : static_cast<format::ItemId>(any_bits(rng));
  insn.callee =
      std::string(1 + rng.below(12), static_cast<char>('a' + rng.below(26)));
  const std::uint64_t args = rng.below(5);
  for (std::uint64_t a = 0; a < args; ++a) {
    insn.args.push_back(static_cast<Reg>(any_bits(rng) & 0x7fffffffu));
  }
  return insn;
}

TEST(RtlPrint, RandomInstructionsMatchTheStreamPrinter) {
  Rng rng(0x5eed0021u);
  for (int i = 0; i < 20000; ++i) {
    const Insn insn = random_insn(rng);
    ASSERT_EQ(to_string(insn), rtl_print_reference::to_string(insn))
        << "random instruction " << i;
  }
}

TEST(RtlPrint, RandomFunctionsMatchTheStreamPrinter) {
  Rng rng(0x5eed0022u);
  for (int f = 0; f < 200; ++f) {
    RtlFunction func;
    func.name = "fn" + std::to_string(f);
    func.num_regs = static_cast<Reg>(rng.below(1u << 20));
    func.frame_size = any_bits(rng);
    const std::uint64_t insns = rng.below(60);
    for (std::uint64_t k = 0; k < insns; ++k) {
      func.insns.push_back(random_insn(rng));
    }
    ASSERT_EQ(to_string(func), rtl_print_reference::to_string(func))
        << "random function " << f;
  }
}

// -- The suite, under both presets --------------------------------------------

std::vector<const workloads::Workload*> suite() {
  std::vector<const workloads::Workload*> out;
  for (const auto& w : workloads::all_workloads()) out.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) out.push_back(&w);
  return out;
}

class RtlPrintSuiteTest
    : public ::testing::TestWithParam<const workloads::Workload*> {};

TEST_P(RtlPrintSuiteTest, EveryInstructionMatchesTheStreamPrinter) {
  const workloads::Workload& workload = *GetParam();
  for (driver::PipelineOptions options :
       {driver::PipelineOptions::paper_table2(),
        driver::PipelineOptions::production()}) {
    options.frontend_options.language = workload.language;
    const driver::CompiledProgram compiled =
        driver::compile_source(workload.source, options);
    std::string want;
    for (const RtlFunction& func : compiled.rtl.functions) {
      for (std::size_t k = 0; k < func.insns.size(); ++k) {
        ASSERT_EQ(to_string(func.insns[k]),
                  rtl_print_reference::to_string(func.insns[k]))
            << workload.name << " " << func.name << " insn " << k;
      }
      want += rtl_print_reference::to_string(func);
    }
    EXPECT_EQ(service::render_rtl(compiled), want) << workload.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RtlPrintSuiteTest, ::testing::ValuesIn(suite()),
    [](const ::testing::TestParamInfo<const workloads::Workload*>& info) {
      std::string name;
      for (const char c : info.param->name) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      return name;
    });

}  // namespace
}  // namespace hli::backend
