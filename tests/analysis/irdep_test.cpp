// Unit tests for the independent RTL-level dependence analyzer (irdep):
// linear address forms via the pair tests (same-iteration and
// loop-carried), interprocedural REF/MOD call effects, the fallback
// DepOracle, the DOALL/DOACROSS classifier, and the HLI soundness audit
// (including its ability to actually catch a corrupted table).
//
// Every test compiles a mini-C snippet through the real pipeline with
// all back-end transforms off, so the analyzer sees exactly the lowered
// RTL the audit and classifier see in production.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/irdep/analyzer.hpp"
#include "analysis/irdep/audit.hpp"
#include "analysis/irdep/classify.hpp"
#include "driver/pipeline.hpp"
#include "hli/query.hpp"
#include "hli/verify.hpp"

namespace hli::irdep {
namespace {

using backend::Opcode;

driver::CompiledProgram compile(const char* source) {
  // frontend_only keeps use_hli + mapping but runs no transform, so insn
  // positions are the pristine lowered stream.
  return driver::compile_source(source,
                                driver::PipelineOptions::frontend_only());
}

const backend::RtlFunction& fn(const driver::CompiledProgram& c,
                               const std::string& name) {
  for (const auto& f : c.rtl.functions) {
    if (f.name == name) return f;
  }
  ADD_FAILURE() << "no function " << name;
  static backend::RtlFunction empty;
  return empty;
}

/// Position of the n-th instruction matching `op` (0-based).
std::size_t nth(const backend::RtlFunction& f, Opcode op, std::size_t n) {
  for (std::size_t i = 0; i < f.insns.size(); ++i) {
    if (f.insns[i].op == op && n-- == 0) return i;
  }
  ADD_FAILURE() << "too few " << static_cast<int>(op) << " insns";
  return 0;
}

TEST(IrdepSameIterTest, DistinctGlobalsAreIndependent) {
  const auto c = compile(
      "int a;\nint b;\n"
      "int main() { a = 1; b = 2; return 0; }\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  EXPECT_EQ(fdi.same_iter(nth(f, Opcode::Store, 0), nth(f, Opcode::Store, 1)),
            Dep::No);
}

TEST(IrdepSameIterTest, SameScalarIsMust) {
  const auto c = compile(
      "int g;\nint main() { g = 1; g = 2; return 0; }\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  EXPECT_EQ(fdi.same_iter(nth(f, Opcode::Store, 0), nth(f, Opcode::Store, 1)),
            Dep::Must);
}

TEST(IrdepSameIterTest, SivNeighborSubscriptsAreIndependent) {
  // a[i] and a[i+1] share the subscript register: equal coefficients,
  // constants 4 bytes apart, access width 4 — provably disjoint.
  const auto c = compile(
      "int a[16];\n"
      "int main() {\n"
      "  for (int i = 0; i < 8; i = i + 1) { a[i] = 1; a[i + 1] = 2; }\n"
      "  return 0;\n"
      "}\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  EXPECT_EQ(fdi.same_iter(nth(f, Opcode::Store, 0), nth(f, Opcode::Store, 1)),
            Dep::No);
}

TEST(IrdepSameIterTest, GcdDisjointStridesAreIndependent) {
  // a[2i] vs a[2i+1]: stride 8 with offsets 0 and 4 never meet.
  const auto c = compile(
      "int a[32];\n"
      "int main() {\n"
      "  for (int i = 0; i < 8; i = i + 1) {\n"
      "    a[2 * i] = 1;\n"
      "    a[2 * i + 1] = 2;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  const std::size_t s0 = nth(f, Opcode::Store, 0);
  const std::size_t s1 = nth(f, Opcode::Store, 1);
  EXPECT_EQ(fdi.same_iter(s0, s1), Dep::No);
  const FunctionModel& model = fdi.model();
  ASSERT_FALSE(model.loops().empty());
  const CarriedDep cd = fdi.carried(model.loops()[0].beg, s0, s1);
  EXPECT_EQ(cd.dep, Dep::No);
}

TEST(IrdepSameIterTest, UnknownPointerDegradesToMay) {
  // The loaded pointer's target is statically untracked; the global is
  // exposed (its address is stored), so May is the only sound answer.
  const auto c = compile(
      "int g;\nint *p;\n"
      "int main() { p = &g; *p = 1; g = 2; return 0; }\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  // Last two stores: through p, and to g.
  std::vector<std::size_t> stores;
  for (std::size_t i = 0; i < f.insns.size(); ++i) {
    if (f.insns[i].op == Opcode::Store) stores.push_back(i);
  }
  ASSERT_GE(stores.size(), 2u);
  EXPECT_EQ(fdi.same_iter(stores[stores.size() - 2], stores.back()),
            Dep::May);
}

TEST(IrdepCarriedTest, ScalarRecurrenceIsProvenDistanceOne) {
  const auto c = compile(
      "int g;\n"
      "int main() {\n"
      "  for (int i = 0; i < 8; i = i + 1) { g = g + 1; }\n"
      "  return g;\n"
      "}\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  const FunctionModel& model = fdi.model();
  ASSERT_FALSE(model.loops().empty());
  const LoopShape& loop = model.loops()[0];
  EXPECT_TRUE(loop.canonical);
  // The in-loop store against itself: every iteration writes g, so the
  // carried output dependence at distance 1 is a proof.
  std::size_t store = 0;
  for (std::size_t i = loop.beg; i < loop.end; ++i) {
    if (f.insns[i].op == Opcode::Store) store = i;
  }
  ASSERT_NE(store, 0u);
  const CarriedDep cd = fdi.carried(loop.beg, store, store);
  EXPECT_EQ(cd.dep, Dep::Must);
  ASSERT_TRUE(cd.distance_known);
  EXPECT_EQ(cd.min_distance, 1);
  EXPECT_TRUE(cd.proven);
}

TEST(IrdepCarriedTest, InductionIndexedStoreCarriesNothing) {
  // a[i] = i: each iteration touches a fresh element; the store against
  // itself has no carried dependence (distance 0 is the only solution).
  const auto c = compile(
      "int a[16];\n"
      "int main() {\n"
      "  for (int i = 0; i < 8; i = i + 1) { a[i] = i; }\n"
      "  return 0;\n"
      "}\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  const FunctionModel& model = fdi.model();
  ASSERT_FALSE(model.loops().empty());
  const std::size_t store = nth(f, Opcode::Store, 0);
  const CarriedDep cd = fdi.carried(model.loops()[0].beg, store, store);
  EXPECT_EQ(cd.dep, Dep::No);
}

TEST(IrdepCarriedTest, NeighborShiftHasDistanceOne) {
  // a[i+1] = a[i] + 1: the value written in iteration k is read in k+1.
  const auto c = compile(
      "int a[16];\n"
      "int main() {\n"
      "  for (int i = 0; i < 8; i = i + 1) { a[i + 1] = a[i] + 1; }\n"
      "  return 0;\n"
      "}\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  const FunctionModel& model = fdi.model();
  ASSERT_FALSE(model.loops().empty());
  const std::size_t load = nth(f, Opcode::Load, 0);
  const std::size_t store = nth(f, Opcode::Store, 0);
  const CarriedDep cd = fdi.carried(model.loops()[0].beg, load, store);
  EXPECT_NE(cd.dep, Dep::No);
  ASSERT_TRUE(cd.distance_known);
  EXPECT_EQ(cd.min_distance, 1);
}

TEST(IrdepRefModTest, CallEffectsComeFromCalleeSummaries) {
  const auto c = compile(
      "int g;\nint h;\n"
      "void touch_g() { g = g + 1; }\n"
      "int pure(int x) { return x * 2; }\n"
      "int main() { h = 1; touch_g(); return pure(h); }\n");
  ProgramDepInfo prog(c.rtl);
  EXPECT_TRUE(prog.call_pure("pure"));
  EXPECT_FALSE(prog.call_pure("touch_g"));

  const auto& f = fn(c, "main");
  FunctionDepInfo fdi(prog, f);
  const std::size_t store_h = nth(f, Opcode::Store, 0);
  std::size_t call_touch = 0;
  for (std::size_t i = 0; i < f.insns.size(); ++i) {
    if (f.insns[i].op == Opcode::Call && f.insns[i].callee == "touch_g") {
      call_touch = i;
    }
  }
  ASSERT_NE(call_touch, 0u);
  // touch_g neither reads nor writes h.
  EXPECT_EQ(fdi.call_effect(call_touch, store_h), 0u);

  const FnSummary* summary = prog.summary("touch_g");
  ASSERT_NE(summary, nullptr);
  const std::int32_t g_sym = c.rtl.find_global("g");
  ASSERT_GE(g_sym, 0);
  EXPECT_TRUE(summary->mod_globals[static_cast<std::size_t>(g_sym)]);
}

TEST(IrdepOracleTest, PrunesIndependentPairsAndCounts) {
  const auto c = compile(
      "int a;\nint b;\n"
      "int main() { a = 1; b = 2; return 0; }\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  IrdepOracle oracle(prog, f);
  const std::size_t s0 = nth(f, Opcode::Store, 0);
  const std::size_t s1 = nth(f, Opcode::Store, 1);
  EXPECT_FALSE(oracle.may_conflict(s0, s1));
  EXPECT_TRUE(oracle.may_conflict(s0, s0));
  EXPECT_EQ(oracle.queries(), 2u);
  EXPECT_EQ(oracle.pruned(), 1u);
  // refresh() rebuilds from the (here unchanged) stream; answers hold.
  oracle.refresh(f);
  EXPECT_FALSE(oracle.may_conflict(s0, s1));
}

TEST(IrdepClassifyTest, DoallDoacrossSerial) {
  const auto c = compile(
      "int a[16];\nint g;\nint *p;\n"
      "int main() {\n"
      "  p = &g;\n"
      "  for (int i = 0; i < 8; i = i + 1) { a[i] = i; }\n"
      "  for (int j = 0; j < 8; j = j + 1) { a[j + 1] = a[j] + 1; }\n"
      "  for (int k = 0; k < 8; k = k + 1) { *p = k; }\n"
      "  return 0;\n"
      "}\n");
  const auto& f = fn(c, "main");
  ProgramDepInfo prog(c.rtl);
  const std::vector<LoopReport> reports = classify_function(prog, f, nullptr);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].irdep_class, LoopClass::Doall);
  EXPECT_EQ(reports[1].irdep_class, LoopClass::Doacross);
  EXPECT_EQ(reports[1].irdep_distance, 1);
  EXPECT_EQ(reports[2].irdep_class, LoopClass::Serial);
  // No HLI view: the combined column restates the irdep column.
  for (const LoopReport& r : reports) {
    EXPECT_EQ(r.combined_class, r.irdep_class);
  }
}

TEST(IrdepClassifyTest, CombinedColumnKeepsSameClassCarriedDeps) {
  // Regression: a scalar-global recurrence is a SAME-class pair, so its
  // LCDD list is legitimately empty (the builder only emits cross-class
  // entries).  The combined column must not read that emptiness as an
  // independence claim and upgrade the loop to DOALL — the dynamic
  // oracle in the differential harness caught exactly that.
  auto options = driver::PipelineOptions::frontend_only();
  options.analyze_loops = true;
  const auto c = driver::compile_source(
      "int g1;\nint g2;\n"
      "int main() {\n"
      "  for (int i = 0; i < 4; i = i + 2) { g1 = i; g2 = g2 + 1; }\n"
      "  return g1 + g2;\n"
      "}\n",
      options);
  ASSERT_EQ(c.loop_reports.size(), 1u);
  const LoopReport& r = c.loop_reports[0];
  EXPECT_EQ(r.irdep_class, LoopClass::Doacross);
  EXPECT_EQ(r.combined_class, LoopClass::Doacross);
  EXPECT_EQ(r.combined_distance, 1);
}

TEST(IrdepAuditTest, CleanTablesProduceNoFindings) {
  const auto c = compile(
      "int g;\nint a[8];\n"
      "int main() {\n"
      "  g = 1;\n"
      "  for (int i = 0; i < 8; i = i + 1) { a[i] = g; }\n"
      "  return 0;\n"
      "}\n");
  const auto& f = fn(c, "main");
  const format::HliEntry* entry = nullptr;
  for (const auto& e : c.hli.entries) {
    if (e.unit_name == "main") entry = &e;
  }
  ASSERT_NE(entry, nullptr);
  query::HliUnitView view(*entry);
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  const AuditResult result = audit_function(fdi, view);
  EXPECT_TRUE(result.ok()) << verify::to_string(result.findings.front());
  EXPECT_GT(result.checks, 0u);
}

TEST(IrdepAuditTest, CatchesCorruptedEquivalenceClass) {
  // Split one store's item out of its equivalence class into a fresh
  // class with no alias entry: the view now answers None for a pair the
  // RTL provably sends to the same address.  The audit must refute it.
  auto c = compile(
      "int g;\nint main() { g = 1; g = 2; return 0; }\n");
  const auto& f = fn(c, "main");
  const std::size_t s0 = nth(f, Opcode::Store, 0);
  const std::size_t s1 = nth(f, Opcode::Store, 1);
  const format::ItemId victim = f.insns[s1].mem.hli_item;
  ASSERT_NE(victim, format::kNoItem);
  ASSERT_NE(f.insns[s0].mem.hli_item, victim);

  format::HliEntry* entry = nullptr;
  for (auto& e : c.hli.entries) {
    if (e.unit_name == "main") entry = &e;
  }
  ASSERT_NE(entry, nullptr);
  bool corrupted = false;
  for (auto& region : entry->regions) {
    for (auto& cls : region.classes) {
      auto it = std::find(cls.member_items.begin(), cls.member_items.end(),
                          victim);
      if (it == cls.member_items.end()) continue;
      cls.member_items.erase(it);
      format::EquivClass split;
      split.id = entry->next_id++;
      split.type = format::EquivAccType::Definite;
      split.member_items.push_back(victim);
      split.has_write = true;
      split.base = cls.base;
      region.classes.push_back(std::move(split));
      corrupted = true;
      break;
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted);

  query::HliUnitView view(*entry);
  ASSERT_EQ(view.may_conflict(f.insns[s0].mem.hli_item, victim),
            query::EquivAcc::None);
  ProgramDepInfo prog(c.rtl);
  FunctionDepInfo fdi(prog, f);
  const AuditResult result = audit_function(fdi, view);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.findings[0].code, verify::Code::IrdepConflictMissed);
}

}  // namespace
}  // namespace hli::irdep
