// Unit tests for the back-end optimization passes: the GCC-style alias
// oracle, CSE (Figure 4), LICM, unrolling (Figure 6), and the scheduler's
// dependence accounting (Figure 5 / Table 2 counters).
#include <gtest/gtest.h>

#include "backend/cse.hpp"
#include "backend/gcc_alias.hpp"
#include "backend/interp.hpp"
#include "backend/licm.hpp"
#include "frontend/lower.hpp"
#include "backend/mapping.hpp"
#include "backend/sched.hpp"
#include "backend/unroll.hpp"
#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/query.hpp"

namespace hli::backend {
namespace {

// ---------------------------------------------------------------------
// GCC alias oracle.
// ---------------------------------------------------------------------

MemRef sym_ref(std::int32_t sym, std::int64_t offset, bool known,
               std::uint8_t size = 4) {
  MemRef m;
  m.base = MemBase::Symbol;
  m.symbol = sym;
  m.const_offset = offset;
  m.offset_known = known;
  m.size = size;
  return m;
}

TEST(GccAliasTest, DistinctSymbolsConstOffsetsIndependent) {
  EXPECT_FALSE(gcc_may_conflict(sym_ref(0, 0, true), sym_ref(1, 0, true)));
}

TEST(GccAliasTest, SameSymbolOverlappingOffsetsConflict) {
  EXPECT_TRUE(gcc_may_conflict(sym_ref(0, 4, true), sym_ref(0, 4, true)));
  EXPECT_TRUE(gcc_may_conflict(sym_ref(0, 2, true, 4), sym_ref(0, 4, true, 4)));
}

TEST(GccAliasTest, SameSymbolDisjointOffsetsIndependent) {
  EXPECT_FALSE(gcc_may_conflict(sym_ref(0, 0, true), sym_ref(0, 8, true)));
}

TEST(GccAliasTest, UnknownOffsetLosesTheBaseSymbol) {
  // The GCC 2.7 blindness the paper exploits: once a subscript is in a
  // register, even a DIFFERENT array conservatively conflicts.
  EXPECT_TRUE(gcc_may_conflict(sym_ref(0, 0, false), sym_ref(1, 0, true)));
  EXPECT_TRUE(gcc_may_conflict(sym_ref(0, 0, false), sym_ref(0, 0, false)));
}

TEST(GccAliasTest, PointerConflictsWithEverything) {
  MemRef p;
  p.base = MemBase::Pointer;
  EXPECT_TRUE(gcc_may_conflict(p, sym_ref(0, 0, true)));
}

TEST(GccAliasTest, FrameVsSymbolIndependent) {
  MemRef f;
  f.base = MemBase::Frame;
  f.frame_offset = 16;
  f.offset_known = true;
  EXPECT_FALSE(gcc_may_conflict(f, sym_ref(0, 0, true)));
}

TEST(GccAliasTest, FrameSlotsDisjointByOffset) {
  MemRef f1;
  f1.base = MemBase::Frame;
  f1.frame_offset = 0;
  f1.offset_known = true;
  MemRef f2 = f1;
  f2.frame_offset = 8;
  EXPECT_FALSE(gcc_may_conflict(f1, f2));
  f2.frame_offset = 2;
  EXPECT_TRUE(gcc_may_conflict(f1, f2));
}

// ---------------------------------------------------------------------
// Pass harness.
// ---------------------------------------------------------------------

struct Compiled {
  frontend::Program prog;
  format::HliFile hli;
  RtlProgram rtl;

  explicit Compiled(const std::string& src) {
    support::DiagnosticEngine diags;
    prog = frontend::compile_to_ast(src, diags);
    hli = builder::build_hli(prog);
    rtl = lower_program(prog);
    for (RtlFunction& f : rtl.functions) {
      if (format::HliEntry* entry = hli.find_unit(f.name)) {
        const MapResult r = map_items(f, *entry);
        EXPECT_TRUE(r.perfect()) << f.name;
      }
    }
  }

  [[nodiscard]] std::int64_t run() {
    const RunResult result = run_program(rtl, "main");
    EXPECT_TRUE(result.ok) << result.error;
    return result.return_value;
  }
};

// ---------------------------------------------------------------------
// CSE.
// ---------------------------------------------------------------------

TEST(CseTest, ReusesPureExpression) {
  Compiled c(R"(
int g; int h;
int main() { g = 3; h = 4; return (g + h) * (g + h); }
)");
  CseOptions opts;
  const CseStats stats = cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.exprs_reused + stats.loads_reused, 0u);
  EXPECT_EQ(c.run(), 49);
}

TEST(CseTest, ReusesLoadWithoutInterveningStore) {
  Compiled c("int g; int main() { g = 6; return g + g; }");
  CseOptions opts;
  const CseStats stats = cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_GE(stats.loads_reused, 1u);
  EXPECT_EQ(c.run(), 12);
}

TEST(CseTest, StoreInvalidatesConflictingLoad) {
  Compiled c(R"(
int a[4];
int main() { int i = 1; int x = a[i]; a[i] = 9; return x + a[i]; }
)");
  CseOptions opts;
  (void)cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(c.run(), 9);  // x == 0 (zero-init), then a[i] == 9.
}

TEST(CseTest, HliKeepsLoadAcrossIndependentStore) {
  // Natively, a[i] load after b[j] store is purged (unknown offsets); with
  // HLI the disjoint arrays keep the entry.
  const char* src = R"(
int a[8]; int b[8];
int main() { int i = 2; int j = 3;
  int x = a[i]; b[j] = 5; return x + a[i]; }
)";
  Compiled native(src);
  CseOptions nat;
  const CseStats native_stats = cse_function(*native.rtl.find_function("main"), nat);
  EXPECT_EQ(native.run(), 0);

  Compiled assisted(src);
  const query::HliUnitView view(*assisted.hli.find_unit("main"));
  CseOptions hli_opts;
  hli_opts.use_hli = true;
  hli_opts.view = &view;
  const CseStats hli_stats = cse_function(*assisted.rtl.find_function("main"), hli_opts);
  EXPECT_GT(hli_stats.loads_reused, native_stats.loads_reused);
  EXPECT_EQ(assisted.run(), 0);
}

TEST(CseTest, NativeCallPurgesEverything) {
  const char* src = R"(
int g; int unrelated;
void bump() { unrelated++; }
int main() { g = 4; int x = g; bump(); return x + g; }
)";
  Compiled c(src);
  CseOptions opts;
  const CseStats stats = cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.entries_purged_at_calls, 0u);
  EXPECT_EQ(c.run(), 8);
}

TEST(CseTest, Figure4RefModKeepsEntriesOverCall) {
  const char* src = R"(
int g; int unrelated;
void bump() { unrelated++; }
int main() { g = 4; int x = g; bump(); return x + g; }
)";
  Compiled c(src);
  const query::HliUnitView view(*c.hli.find_unit("main"));
  CseOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  const CseStats stats = cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.entries_kept_at_calls, 0u);
  EXPECT_EQ(c.run(), 8);
}

TEST(CseTest, RefModPurgesEntriesTheCalleeWrites) {
  const char* src = R"(
int g;
void clobber() { g = 99; }
int main() { g = 4; int x = g; clobber(); return x * 1000 + g; }
)";
  Compiled c(src);
  const query::HliUnitView view(*c.hli.find_unit("main"));
  CseOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  (void)cse_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(c.run(), 4099);  // The reload after the call must see 99.
}

// A block that recomputes a value into the register already holding it
// (lowering never emits one) turns the second computation into a self
// move; the register must not become its own copy, or reading it again
// would follow the copy chain forever.
TEST(CseTest, RecomputingAHeldValueTerminates) {
  RtlFunction func;
  func.name = "main";
  func.num_regs = 2;
  Insn imm;
  imm.op = Opcode::LoadImm;
  imm.rd = 0;
  imm.imm = 3;
  func.insns.push_back(imm);
  func.insns.push_back(imm);
  Insn add;
  add.op = Opcode::Add;
  add.rd = 1;
  add.rs1 = 0;
  add.rs2 = 0;
  func.insns.push_back(add);
  func.insns.push_back(add);
  const CseStats stats = cse_function(func, CseOptions{});
  EXPECT_EQ(stats.exprs_reused, 2u);
  EXPECT_EQ(func.insns[1].op, Opcode::Move);
  EXPECT_EQ(func.insns[1].rs1, 0);
  EXPECT_EQ(func.insns[3].op, Opcode::Move);
  EXPECT_EQ(func.insns[3].rs1, 1);
}

// ---------------------------------------------------------------------
// LICM.
// ---------------------------------------------------------------------

TEST(LicmTest, HoistsInvariantLoadWithHli) {
  const char* src = R"(
int a[64]; int k; int s;
int main() {
  k = 7;
  for (int i = 0; i < 64; i++) { a[i] = k; }
  return a[9];
}
)";
  Compiled c(src);
  const query::HliUnitView view(*c.hli.find_unit("main"));
  LicmOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  const LicmStats stats = licm_function(*c.rtl.find_function("main"), opts);
  EXPECT_GE(stats.loads_hoisted, 1u);  // The k load leaves the loop.
  EXPECT_EQ(c.run(), 7);
}

TEST(LicmTest, NativeOracleBlocksTheSameLoad) {
  const char* src = R"(
int a[64]; int k; int s;
int main() {
  k = 7;
  for (int i = 0; i < 64; i++) { a[i] = k; }
  return a[9];
}
)";
  Compiled c(src);
  LicmOptions opts;  // No HLI: a[i] store (unknown offset) blocks k load.
  const LicmStats stats = licm_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loads_hoisted, 0u);
  EXPECT_GT(stats.loads_blocked_native, 0u);
  EXPECT_EQ(c.run(), 7);
}

TEST(LicmTest, ConflictingStoreBlocksHoistEvenWithHli) {
  const char* src = R"(
int a[64];
int main() {
  a[0] = 3;
  int s = 0;
  for (int i = 0; i < 64; i++) { s += a[0]; a[i] = i; }
  return s;
}
)";
  Compiled c(src);
  const query::HliUnitView view(*c.hli.find_unit("main"));
  LicmOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  (void)licm_function(*c.rtl.find_function("main"), opts);
  // a[0] is overwritten by a[i] at i==0: result must reflect execution
  // order (first iteration reads 3, later ones read 0).
  EXPECT_EQ(c.run(), 3);
}

TEST(LicmTest, PureAddressComputationHoistsNatively) {
  const char* src = R"(
int a[64];
int main() {
  for (int i = 0; i < 64; i++) { a[i] = i; }
  return a[10];
}
)";
  Compiled c(src);
  LicmOptions opts;
  const LicmStats stats = licm_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.pure_hoisted, 0u);  // The LoadAddr of `a` at least.
  EXPECT_EQ(c.run(), 10);
}

// ---------------------------------------------------------------------
// Unrolling.
// ---------------------------------------------------------------------

TEST(UnrollTest, UnrollsCountedLoopAndPreservesSemantics) {
  const char* src = R"(
int a[64];
int main() {
  for (int i = 0; i < 64; i++) { a[i] = i * 3; }
  int s = 0;
  for (int i = 0; i < 64; i++) { s += a[i]; }
  return s;
}
)";
  Compiled c(src);
  UnrollOptions opts;
  opts.factor = 4;
  opts.entry = c.hli.find_unit("main");
  const UnrollStats stats = unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loops_unrolled, 2u);
  EXPECT_EQ(c.run(), 3 * (63 * 64 / 2));
}

TEST(UnrollTest, RejectsNonDivisibleTripCount) {
  Compiled c(R"(
int a[10];
int main() { for (int i = 0; i < 10; i++) { a[i] = i; } return a[9]; }
)");
  UnrollOptions opts;
  opts.factor = 4;
  opts.entry = c.hli.find_unit("main");
  const UnrollStats stats = unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loops_unrolled, 0u);
  EXPECT_EQ(stats.loops_rejected, 1u);
  EXPECT_EQ(c.run(), 9);
}

TEST(UnrollTest, RejectsBranchyBody) {
  Compiled c(R"(
int a[16];
int main() {
  for (int i = 0; i < 16; i++) { if (i > 7) { a[i] = i; } }
  return a[9];
}
)");
  UnrollOptions opts;
  opts.factor = 2;
  opts.entry = c.hli.find_unit("main");
  const UnrollStats stats = unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loops_unrolled, 0u);
  EXPECT_EQ(c.run(), 9);
}

TEST(UnrollTest, AccumulatorStaysCarriedAcrossCopies) {
  Compiled c(R"(
int a[32]; int s;
int main() {
  for (int i = 0; i < 32; i++) { a[i] = i; }
  for (int i = 0; i < 32; i++) { s += a[i]; }
  return s;
}
)");
  UnrollOptions opts;
  opts.factor = 8;
  opts.entry = c.hli.find_unit("main");
  (void)unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(c.run(), 31 * 32 / 2);
}

TEST(UnrollTest, RecurrencePreservedAfterUnroll) {
  Compiled c(R"(
int a[64];
int main() {
  a[0] = 1;
  for (int i = 1; i <= 32; i++) { a[i] = a[i-1] + 2; }
  return a[32];
}
)");
  UnrollOptions opts;
  opts.factor = 4;
  opts.entry = c.hli.find_unit("main");
  const UnrollStats stats = unroll_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.loops_unrolled, 1u);
  // Then schedule WITH the maintained HLI: must not break the recurrence.
  const query::HliUnitView view(*c.hli.find_unit("main"));
  SchedOptions sched;
  sched.use_hli = true;
  sched.view = &view;
  (void)schedule_function(*c.rtl.find_function("main"), sched);
  EXPECT_EQ(c.run(), 65);
}

// ---------------------------------------------------------------------
// Scheduler dependence accounting (Figure 5).
// ---------------------------------------------------------------------

TEST(SchedTest, CountsOnlyWriteInvolvingMemPairs) {
  Compiled c(R"(
int a[8]; int b[8];
int main() { int i = 1; int x = a[i] + b[i]; return x; }
)");
  SchedOptions opts;
  const DepStats stats = schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.mem_queries, 0u);  // Load-load pairs are never queried.
}

TEST(SchedTest, HliPrunesCrossArrayEdges) {
  Compiled c(R"(
int a[8]; int b[8];
int main() { int i = 1; a[i] = 1; b[i] = 2; return a[i] + b[i]; }
)");
  const query::HliUnitView view(*c.hli.find_unit("main"));
  SchedOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  const DepStats stats = schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.mem_queries, 0u);
  EXPECT_GT(stats.gcc_yes, stats.combined_yes);
  EXPECT_EQ(c.run(), 3);
}

TEST(SchedTest, TrueDependencePreservedUnderHli) {
  Compiled c(R"(
int a[8];
int main() { int i = 2; a[i] = 41; a[i] = a[i] + 1; return a[i]; }
)");
  const query::HliUnitView view(*c.hli.find_unit("main"));
  SchedOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  (void)schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(c.run(), 42);
}

TEST(SchedTest, CallEdgesRelaxedByRefMod) {
  Compiled c(R"(
int g; int other;
void bump_other() { other++; }
int main() { g = 1; bump_other(); g = g + 1; return g; }
)");
  const query::HliUnitView view(*c.hli.find_unit("main"));
  SchedOptions opts;
  opts.use_hli = true;
  opts.view = &view;
  const DepStats stats = schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_GT(stats.call_queries, 0u);
  EXPECT_LT(stats.call_edges_hli, stats.call_edges_native);
  EXPECT_EQ(c.run(), 2);
}

TEST(SchedTest, NativeEqualsCombinedWhenHliOff) {
  Compiled c(R"(
int a[8];
int main() { int i = 1; a[i] = 5; a[i+1] = 6; return a[i]; }
)");
  SchedOptions opts;  // No view.
  const DepStats stats = schedule_function(*c.rtl.find_function("main"), opts);
  EXPECT_EQ(stats.gcc_yes, stats.hli_yes);  // Fallback: hli == native.
  EXPECT_EQ(c.run(), 5);
}

}  // namespace
}  // namespace hli::backend
