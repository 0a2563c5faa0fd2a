#include "backend/interp.hpp"

#include <gtest/gtest.h>

#include "frontend/lower.hpp"
#include "frontend/sema.hpp"

namespace hli::backend {
namespace {

RunResult run_src(const std::string& src, const InterpOptions& options = {}) {
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(src, diags);
  RtlProgram rtl = lower_program(prog);
  return run_program(rtl, "main", nullptr, options);
}

TEST(InterpTest, ReturnsValue) {
  const RunResult r = run_src("int main() { return 41 + 1; }");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 42);
}

TEST(InterpTest, EmitHashIsOrderSensitive) {
  const RunResult a = run_src(
      "void emit(int v); int main() { emit(1); emit(2); return 0; }");
  const RunResult b = run_src(
      "void emit(int v); int main() { emit(2); emit(1); return 0; }");
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_NE(a.output_hash, b.output_hash);
  EXPECT_EQ(a.emit_count, 2u);
}

TEST(InterpTest, MathBuiltins) {
  const RunResult r = run_src(R"(
double sqrt(double x);
double pow(double a, double b);
int main() { return (sqrt(16.0) == 4.0 && pow(2.0, 10.0) == 1024.0) ? 1 : 0; }
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
}

TEST(InterpTest, UnknownExternFails) {
  const RunResult r = run_src("void mystery(); int main() { mystery(); return 0; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("mystery"), std::string::npos);
}

TEST(InterpTest, MissingEntryFails) {
  const RunResult r = run_src("int helper() { return 3; }");
  EXPECT_FALSE(r.ok);
}

TEST(InterpTest, DivisionByZeroTrapsCleanly) {
  const RunResult r = run_src("int z; int main() { return 5 / z; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("division"), std::string::npos);
}

TEST(InterpTest, InstructionBudgetStopsRunaway) {
  InterpOptions options;
  options.max_insns = 10'000;
  const RunResult r = run_src("int main() { while (1) { } return 0; }", options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
}

TEST(InterpTest, DeepRecursionTrapsCleanly) {
  InterpOptions options;
  options.max_call_depth = 64;
  const RunResult r = run_src(
      "int down(int n) { return down(n + 1); } int main() { return down(0); }",
      options);
  EXPECT_FALSE(r.ok);
}

TEST(InterpTest, GlobalArraysZeroInitialized) {
  const RunResult r = run_src("double d[16]; int a[16]; int main() {"
                              " return (d[7] == 0.0 && a[3] == 0) ? 1 : 0; }");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
}

TEST(InterpTest, Int32TruncationOnStore) {
  // Stored ints are 4 bytes: large intermediate values wrap as in C.
  const RunResult r = run_src(R"(
int g;
int main() { g = 2147483647; g = g + 1; return g < 0 ? 1 : 0; }
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
}

TEST(InterpTest, FloatMemoryIsSinglePrecision) {
  const RunResult r = run_src(R"(
float f[2];
int main() {
  f[0] = 0.1;
  double d = f[0];
  return (d > 0.0999 && d < 0.1001 && d != 0.1) ? 1 : 0;
}
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
}

TEST(InterpTest, DynamicInsnCountGrowsWithWork) {
  const RunResult small = run_src(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }");
  const RunResult big = run_src(
      "int main() { int s = 0; for (int i = 0; i < 1000; i++) s += i; return s; }");
  ASSERT_TRUE(small.ok && big.ok);
  EXPECT_GT(big.dynamic_insns, small.dynamic_insns * 10);
}

TEST(InterpTest, WrappedAddressLoadTraps) {
  // a sits at address 8, so p - 3 is 8 - 12 = 2^64 - 4: a check that
  // adds the access size to the address would wrap past it.
  const RunResult r = run_src(
      "int a[4]; int main() { int *p; p = a; p = p - 3; return *p; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("memory access out of range"), std::string::npos)
      << r.error;
}

TEST(InterpTest, WrappedAddressStoreTraps) {
  const RunResult r = run_src(
      "int a[4];"
      " int main() { int *p; p = a; p = p - 3; *p = 123456; return a[0]; }");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("memory access out of range"), std::string::npos)
      << r.error;
}

/// main() { *(int*)addr = 7; return *(int*)addr; } as hand-built RTL, so
/// the address can be any byte, aligned or not.
RtlProgram store_load_at(std::uint64_t addr) {
  RtlFunction f;
  f.name = "main";
  const Reg ptr = f.fresh_reg();
  const Reg val = f.fresh_reg();
  Insn set_ptr;
  set_ptr.op = Opcode::LoadImm;
  set_ptr.rd = ptr;
  set_ptr.imm = static_cast<std::int64_t>(addr);
  Insn set_val = set_ptr;
  set_val.rd = val;
  set_val.imm = 7;
  Insn store;
  store.op = Opcode::Store;
  store.rs1 = ptr;
  store.rs2 = val;
  Insn load;
  load.op = Opcode::Load;
  load.rd = val;
  load.rs1 = ptr;
  Insn ret;
  ret.op = Opcode::Return;
  ret.rs1 = val;
  f.insns = {set_ptr, set_val, store, load, ret};
  RtlProgram prog;
  prog.functions.push_back(f);
  return prog;
}

TEST(InterpTest, ArenaEndsAtItsLastByte) {
  InterpOptions options;
  options.memory_bytes = 1u << 20;
  // A 4-byte access whose last byte is the arena's last byte...
  const RunResult last =
      run_program(store_load_at(options.memory_bytes - 4), "main", nullptr,
                  options);
  ASSERT_TRUE(last.ok) << last.error;
  EXPECT_EQ(last.return_value, 7);
  // ...and one that reaches a byte past it.
  const RunResult past =
      run_program(store_load_at(options.memory_bytes - 3), "main", nullptr,
                  options);
  EXPECT_FALSE(past.ok);
  EXPECT_EQ(past.error, "interp: memory access out of range at " +
                            std::to_string(options.memory_bytes - 3));
}

// --- Trap paths on hand-built RTL ------------------------------------

Insn imm(Reg rd, std::int64_t value) {
  Insn insn;
  insn.op = Opcode::LoadImm;
  insn.rd = rd;
  insn.imm = value;
  return insn;
}

Insn branch(Opcode op, Reg rs1, std::int32_t label) {
  Insn insn;
  insn.op = op;
  insn.rs1 = rs1;
  insn.label = label;
  return insn;
}

Insn ret(Reg rs1) {
  Insn insn;
  insn.op = Opcode::Return;
  insn.rs1 = rs1;
  return insn;
}

RtlProgram single_function(std::vector<Insn> insns, Reg num_regs) {
  RtlFunction f;
  f.name = "main";
  f.num_regs = num_regs;
  f.insns = std::move(insns);
  RtlProgram prog;
  prog.functions.push_back(std::move(f));
  return prog;
}

/// main() { r0 = cond; if (r0 == 0) goto 99; return 7; } where label 99
/// is defined nowhere.
RtlProgram branch_to_nowhere(std::int64_t cond) {
  return single_function(
      {imm(0, cond), branch(Opcode::BranchZ, 0, 99), imm(1, 7), ret(1)}, 2);
}

TEST(InterpTest, UntakenBranchToUndefinedLabelRunsClean) {
  const RunResult r = run_program(branch_to_nowhere(1));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 7);
  EXPECT_EQ(r.dynamic_insns, 4u);
}

TEST(InterpTest, TakenBranchToUndefinedLabelTraps) {
  const RunResult r = run_program(branch_to_nowhere(0));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "interp: branch to an undefined label");
  EXPECT_EQ(r.dynamic_insns, 2u);
}

TEST(InterpTest, UnexecutedCallToUnknownExternRunsClean) {
  // main() { r0 = 1; if (r0 != 0) goto 1; mystery(); 1: return r0; }
  Insn call;
  call.op = Opcode::Call;
  call.callee = "mystery";
  Insn label;
  label.op = Opcode::Label;
  label.label = 1;
  const RtlProgram prog = single_function(
      {imm(0, 1), branch(Opcode::BranchNZ, 0, 1), call, label, ret(0)}, 1);
  const RunResult r = run_program(prog);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 1);
  EXPECT_EQ(r.dynamic_insns, 4u);
}

/// Runs `prog` at 1 and at 4 lanes; both must trap with `error` after
/// exactly `insns` instructions, the trapping one included.
void expect_trap_at(const RtlProgram& prog, const std::string& error,
                    std::uint64_t insns) {
  for (const unsigned lanes : {1u, 4u}) {
    InterpOptions options;
    options.exec_threads = lanes;
    const RunResult r = run_program(prog, "main", nullptr, options);
    EXPECT_FALSE(r.ok) << lanes << " lanes";
    EXPECT_EQ(r.error, error) << lanes << " lanes";
    EXPECT_EQ(r.dynamic_insns, insns) << lanes << " lanes";
  }
}

TEST(InterpTest, DivideByZeroTrapCountsTheTrappingInsn) {
  Insn div;
  div.op = Opcode::Div;
  div.rd = 2;
  div.rs1 = 0;
  div.rs2 = 1;
  Insn rem = div;
  rem.op = Opcode::Rem;
  expect_trap_at(single_function({imm(0, 5), imm(1, 0), div, ret(2)}, 3),
                 "interp: integer division by zero", 3);
  expect_trap_at(
      single_function({imm(0, 5), imm(1, 0), imm(2, 1), rem, ret(2)}, 3),
      "interp: integer remainder by zero", 4);
}

TEST(InterpTest, OutOfRangeLoadTrapCountsTheTrappingInsn) {
  // Address 0 is null; the load is the third instruction.
  Insn load;
  load.op = Opcode::Load;
  load.rd = 1;
  load.rs1 = 0;
  expect_trap_at(single_function({imm(0, 0), imm(1, 3), load, ret(1)}, 2),
                 "interp: memory access out of range at 0", 3);
}

TEST(InterpTest, UnwrittenHighMemoryReadsZero) {
  const RunResult r = run_src(
      "int a[4]; int main() { int *p; p = a + 200000; return *p; }");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.return_value, 0);
}

TEST(InterpTest, TraceSinkSeesMemoryAddresses) {
  class Collector : public TraceSink {
   public:
    void on_insn(const TraceEvent& event) override {
      if (event.insn->op == Opcode::Store) store_addrs.push_back(event.address);
    }
    std::vector<std::uint64_t> store_addrs;
  };
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(
      "int a[4]; int main() { a[0] = 1; a[1] = 2; return 0; }", diags);
  RtlProgram rtl = lower_program(prog);
  Collector sink;
  const RunResult r = run_program(rtl, "main", &sink);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(sink.store_addrs.size(), 2u);
  EXPECT_EQ(sink.store_addrs[1] - sink.store_addrs[0], 4u);
}

}  // namespace
}  // namespace hli::backend
