// End-to-end semantic property tests: for a sweep of operator/operand
// combinations, a mini-C program compiled through the FULL pipeline (all
// passes, HLI on) must compute exactly what the host C++ compiler computes
// for the same expression.  This pins the whole stack — parser, sema,
// lowering, every optimization, interpreter — to C semantics.
#include <gtest/gtest.h>

#include <ostream>

#include "driver/pipeline.hpp"

namespace hli::driver {
namespace {

struct IntCase {
  const char* op;
  std::int64_t lhs;
  std::int64_t rhs;
};

// ctest names each case by its printed value; print the operator and the
// operands, not the struct's bytes (a pointer that moves with every link).
void PrintTo(const IntCase& c, std::ostream* os) {
  *os << c.lhs << ' ' << c.op << ' ' << c.rhs;
}

class IntBinopSweep : public ::testing::TestWithParam<IntCase> {};

std::int64_t host_eval(const std::string& op, std::int64_t a, std::int64_t b) {
  // The documented mini-C model (MIPS64-like): memory ints are 32 bits, so
  // the loads truncate; REGISTER arithmetic is 64-bit.  (See README "The
  // mini-C language" and InterpTest.Int32TruncationOnStore.)
  const std::int64_t a64 = static_cast<std::int32_t>(a);
  const std::int64_t b64 = static_cast<std::int32_t>(b);
  if (op == "+") return a64 + b64;
  if (op == "-") return a64 - b64;
  if (op == "*") return a64 * b64;
  if (op == "/") return b64 == 0 ? 0 : a64 / b64;
  if (op == "%") return b64 == 0 ? 0 : a64 % b64;
  if (op == "&") return a64 & b64;
  if (op == "|") return a64 | b64;
  if (op == "^") return a64 ^ b64;
  if (op == "<<") return a64 << (b64 & 63);
  if (op == ">>") return a64 >> (b64 & 63);
  if (op == "<") return a64 < b64;
  if (op == "<=") return a64 <= b64;
  if (op == ">") return a64 > b64;
  if (op == ">=") return a64 >= b64;
  if (op == "==") return a64 == b64;
  if (op == "!=") return a64 != b64;
  ADD_FAILURE() << "unknown op " << op;
  return 0;
}

TEST_P(IntBinopSweep, PipelineMatchesHostSemantics) {
  const IntCase c = GetParam();
  if ((c.op == std::string("/") || c.op == std::string("%")) && c.rhs == 0) {
    GTEST_SKIP() << "division by zero traps by design";
  }
  // Route the operands through memory (globals) so constant folding can't
  // trivialize the test and the memory pipeline is exercised.
  const std::string src = "int ga; int gb;\n"
                          "int main() {\n"
                          "  ga = " + std::to_string(c.lhs) + ";\n"
                          "  gb = " + std::to_string(c.rhs) + ";\n"
                          "  return ga " + c.op + " gb;\n"
                          "}\n";
  PipelineOptions options;
  options.use_hli = true;
  options.enable_regalloc = true;
  const CompiledProgram compiled = compile_source(src, options);
  const backend::RunResult run = execute(compiled);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.return_value, host_eval(c.op, c.lhs, c.rhs))
      << c.lhs << " " << c.op << " " << c.rhs;
}

std::vector<IntCase> int_cases() {
  const char* ops[] = {"+", "-", "*", "/", "%", "&", "|", "^",
                       "<<", ">>", "<", "<=", ">", ">=", "==", "!="};
  const std::int64_t values[] = {0, 1, -1, 7, -13, 1024, 2147483647};
  std::vector<IntCase> cases;
  for (const char* op : ops) {
    for (const std::int64_t a : values) {
      for (const std::int64_t b : values) {
        // Shifts by negative/huge amounts are UB in C; keep them sane.
        if ((op == std::string("<<") || op == std::string(">>")) &&
            (b < 0 || b > 31)) {
          continue;  // Negative/huge shifts differ per platform; skip.
        }
        cases.push_back({op, a, b});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllIntOps, IntBinopSweep,
                         ::testing::ValuesIn(int_cases()));

// ---------------------------------------------------------------------
// Floating-point spot checks through the same full pipeline.
// ---------------------------------------------------------------------

double run_fp(const std::string& expr) {
  const std::string src = "double ga; double gb;\n"
                          "void emitd(double v);\n"
                          "int main() {\n"
                          "  ga = 2.5; gb = -0.75;\n"
                          "  double r = " + expr + ";\n"
                          "  return r * 1000.0;\n"
                          "}\n";
  PipelineOptions options;
  options.enable_regalloc = true;
  const CompiledProgram compiled = compile_source(src, options);
  const backend::RunResult run = execute(compiled);
  EXPECT_TRUE(run.ok) << run.error;
  return static_cast<double>(run.return_value);
}

TEST(FpSemanticsTest, Arithmetic) {
  EXPECT_EQ(run_fp("ga + gb"), static_cast<std::int64_t>((2.5 + -0.75) * 1000));
  EXPECT_EQ(run_fp("ga * gb"), static_cast<std::int64_t>((2.5 * -0.75) * 1000));
  EXPECT_EQ(run_fp("ga / gb"), static_cast<std::int64_t>((2.5 / -0.75) * 1000));
  EXPECT_EQ(run_fp("ga - gb"), static_cast<std::int64_t>((2.5 - -0.75) * 1000));
}

TEST(FpSemanticsTest, MixedIntFloatPromotion) {
  EXPECT_EQ(run_fp("ga + 2"), static_cast<std::int64_t>(4.5 * 1000));
  EXPECT_EQ(run_fp("(1 + 1) * ga"), 5000);
}

}  // namespace
}  // namespace hli::driver
