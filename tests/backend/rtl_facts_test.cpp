// The RTL operand and loop facts every pass shares (backend/rtl.hpp):
// for_each_read / def_of / is_control against an explicit per-opcode
// table, loop_spans on hand-built nests, match_counted_loop against the
// independent analyzer's canonical loops and the parexec plans, and the
// operand-field invariant that makes one generic walker exact.
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <string>
#include <vector>

#include "analysis/irdep/form.hpp"
#include "backend/rtl.hpp"
#include "driver/pipeline.hpp"
#include "frontend/contract.hpp"
#include "workloads/workloads.hpp"

namespace hli::backend {
namespace {

/// Which operand fields an opcode uses.  Written out per opcode rather
/// than derived, so a new opcode or a lowering change must be reviewed.
struct Operands {
  Opcode op;
  bool rd;
  bool rs1;
  bool rs2;
  bool args;
  bool control;
};

constexpr Operands kTable[] = {
    // op              rd     rs1    rs2    args   control
    {Opcode::LoadImm,  true,  false, false, false, false},
    {Opcode::Move,     true,  true,  false, false, false},
    {Opcode::Add,      true,  true,  true,  false, false},
    {Opcode::Sub,      true,  true,  true,  false, false},
    {Opcode::Mul,      true,  true,  true,  false, false},
    {Opcode::Div,      true,  true,  true,  false, false},
    {Opcode::Rem,      true,  true,  true,  false, false},
    {Opcode::Neg,      true,  true,  false, false, false},
    {Opcode::And,      true,  true,  true,  false, false},
    {Opcode::Or,       true,  true,  true,  false, false},
    {Opcode::Xor,      true,  true,  true,  false, false},
    {Opcode::Not,      true,  true,  false, false, false},
    {Opcode::Shl,      true,  true,  true,  false, false},
    {Opcode::Shr,      true,  true,  true,  false, false},
    {Opcode::CmpLt,    true,  true,  true,  false, false},
    {Opcode::CmpLe,    true,  true,  true,  false, false},
    {Opcode::CmpGt,    true,  true,  true,  false, false},
    {Opcode::CmpGe,    true,  true,  true,  false, false},
    {Opcode::CmpEq,    true,  true,  true,  false, false},
    {Opcode::CmpNe,    true,  true,  true,  false, false},
    {Opcode::IntToFp,  true,  true,  false, false, false},
    {Opcode::FpToInt,  true,  true,  false, false, false},
    {Opcode::LoadAddr, true,  false, false, false, false},
    {Opcode::Load,     true,  true,  false, false, false},
    {Opcode::Store,    false, true,  true,  false, false},
    {Opcode::Label,    false, false, false, false, true},
    {Opcode::Jump,     false, false, false, false, true},
    {Opcode::BranchZ,  false, true,  false, false, true},
    {Opcode::BranchNZ, false, true,  false, false, true},
    {Opcode::Call,     true,  false, false, true,  false},
    {Opcode::Return,   false, true,  false, false, true},
    {Opcode::LoopBeg,  false, false, false, false, true},
    {Opcode::LoopEnd,  false, false, false, false, true},
};

const Operands& operands_of(Opcode op) {
  for (const Operands& row : kTable) {
    if (row.op == op) return row;
  }
  ADD_FAILURE() << "opcode " << static_cast<int>(op) << " missing from table";
  return kTable[0];
}

TEST(RtlFactsTest, TableCoversEveryOpcode) {
  constexpr int kOpcodes = static_cast<int>(Opcode::LoopEnd) + 1;
  ASSERT_EQ(std::size(kTable), static_cast<std::size_t>(kOpcodes));
  for (int i = 0; i < kOpcodes; ++i) {
    EXPECT_EQ(static_cast<int>(kTable[i].op), i);
  }
}

TEST(RtlFactsTest, ReadsDefsAndControlMatchTheTable) {
  for (const Operands& row : kTable) {
    Insn insn;
    insn.op = row.op;
    if (row.rd) insn.rd = 1;
    if (row.rs1) insn.rs1 = 2;
    if (row.rs2) insn.rs2 = 3;
    if (row.args) insn.args = {4, 5, 4};
    std::vector<Reg> expected;
    if (row.rs1) expected.push_back(2);
    if (row.rs2) expected.push_back(3);
    if (row.args) expected.insert(expected.end(), {4, 5, 4});
    std::vector<Reg> reads;
    for_each_read(insn, [&](Reg r) { reads.push_back(r); });
    EXPECT_EQ(reads, expected) << to_string(insn);
    EXPECT_EQ(def_of(insn), row.rd ? 1 : kNoReg) << to_string(insn);
    EXPECT_EQ(is_control(row.op), row.control) << to_string(insn);
  }
}

TEST(RtlFactsTest, StoreAndControlDefineNothingWhateverRdHolds) {
  for (const Operands& row : kTable) {
    if (row.rd) continue;
    Insn insn;
    insn.op = row.op;
    insn.rd = 7;
    EXPECT_EQ(def_of(insn), kNoReg) << to_string(insn);
  }
}

// -- loop_spans ---------------------------------------------------------------

RtlFunction with_ops(std::initializer_list<Opcode> ops) {
  RtlFunction func;
  for (const Opcode op : ops) {
    Insn insn;
    insn.op = op;
    func.insns.push_back(insn);
  }
  return func;
}

void expect_spans(const RtlFunction& func,
                  const std::vector<LoopSpan>& expected) {
  const std::vector<LoopSpan> spans = loop_spans(func);
  ASSERT_EQ(spans.size(), expected.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].beg, expected[i].beg) << "span " << i;
    EXPECT_EQ(spans[i].end, expected[i].end) << "span " << i;
    EXPECT_EQ(spans[i].innermost, expected[i].innermost) << "span " << i;
  }
}

constexpr Opcode B = Opcode::LoopBeg;
constexpr Opcode E = Opcode::LoopEnd;
constexpr Opcode N = Opcode::Add;

TEST(RtlFactsTest, LoopSpansOfANestInLoopBegOrder) {
  //                     0  1  2  3  4  5  6  7  8
  expect_spans(with_ops({B, N, B, N, B, E, E, N, E}),
               {{0, 8, false}, {2, 6, false}, {4, 5, true}});
}

TEST(RtlFactsTest, LoopSpansOfSiblingsInsideAnOuterLoop) {
  //                     0  1  2  3  4  5  6  7
  expect_spans(with_ops({B, B, N, E, B, E, E, N}),
               {{0, 6, false}, {1, 3, true}, {4, 5, true}});
  expect_spans(with_ops({N, B, E, B, N, E}), {{1, 2, true}, {3, 5, true}});
}

TEST(RtlFactsTest, LoopSpansSkipUnmatchedNotes) {
  // A stray LoopEnd before any LoopBeg and one after the pair close
  // nothing; a LoopBeg never closed is no span.
  expect_spans(with_ops({E, B, N, E, E}), {{1, 3, true}});
  expect_spans(with_ops({B, B, N, E}), {{1, 3, true}});
  expect_spans(with_ops({N, N}), {});
}

// -- match_counted_loop -------------------------------------------------------

/// LoopBeg; Label top; cond; BranchZ end; body; Label cont; step;
/// Jump top; Label end; LoopEnd.
RtlFunction counted_loop() {
  RtlFunction func = with_ops({B, Opcode::Label, Opcode::CmpLt,
                               Opcode::BranchZ, N, Opcode::Label, N,
                               Opcode::Jump, Opcode::Label, E});
  func.insns[1].label = 0;  // top
  func.insns[3].label = 2;  // -> end
  func.insns[5].label = 1;  // cont
  func.insns[7].label = 0;  // -> top
  func.insns[8].label = 2;  // end
  return func;
}

TEST(RtlFactsTest, MatchCountedLoopFindsTheSkeleton) {
  const RtlFunction func = counted_loop();
  const std::optional<CountedLoop> loop =
      match_counted_loop(func, loop_spans(func).at(0));
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->top, 1u);
  EXPECT_EQ(loop->exit_branch, 3u);
  EXPECT_EQ(loop->cont, 5u);
  EXPECT_EQ(loop->backedge, 7u);
  EXPECT_EQ(loop->end_label, 8u);
}

TEST(RtlFactsTest, MatchCountedLoopRejectsOtherShapes) {
  const auto rejects = [](const RtlFunction& func) {
    return !match_counted_loop(func, loop_spans(func).at(0)).has_value();
  };
  RtlFunction wrong_target = counted_loop();
  wrong_target.insns[3].label = 1;  // Exit branch not to Label end.
  EXPECT_TRUE(rejects(wrong_target));
  RtlFunction no_cont = counted_loop();
  no_cont.insns[5].op = N;
  EXPECT_TRUE(rejects(no_cont));
  RtlFunction extra_branch = counted_loop();
  extra_branch.insns[4].op = Opcode::BranchNZ;
  EXPECT_TRUE(rejects(extra_branch));
  RtlFunction wrong_backedge = counted_loop();
  wrong_backedge.insns[7].label = 1;
  EXPECT_TRUE(rejects(wrong_backedge));
  RtlFunction outer = counted_loop();  // A loop nested in the body.
  const RtlFunction inner = with_ops({B, E});
  outer.insns.insert(outer.insns.begin() + 4, inner.insns.begin(),
                     inner.insns.end());
  EXPECT_TRUE(rejects(outer));
}

// -- The suite ---------------------------------------------------------------

std::vector<const workloads::Workload*> suite() {
  std::vector<const workloads::Workload*> out;
  for (const auto& w : workloads::all_workloads()) out.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) out.push_back(&w);
  return out;
}

/// The lowered RTL and the final RTL under paper_table2 and production.
std::vector<RtlProgram> programs_of(const workloads::Workload& workload) {
  std::vector<RtlProgram> out;
  frontend::FrontendOptions fe;
  fe.language = workload.language;
  out.push_back(frontend::analyze_unit(workload.source, fe).rtl);
  for (driver::PipelineOptions options :
       {driver::PipelineOptions::paper_table2(),
        driver::PipelineOptions::production()}) {
    options.frontend_options.language = workload.language;
    out.push_back(driver::compile_source(workload.source, options).rtl);
  }
  return out;
}

class RtlSuiteTest
    : public ::testing::TestWithParam<const workloads::Workload*> {};

TEST_P(RtlSuiteTest, NoInstructionSetsAFieldItsOpcodeDoesNotUse) {
  for (const RtlProgram& prog : programs_of(*GetParam())) {
    for (const RtlFunction& func : prog.functions) {
      for (const Insn& insn : func.insns) {
        const Operands& row = operands_of(insn.op);
        const std::string where = func.name + ": " + to_string(insn);
        EXPECT_TRUE(row.rd || insn.rd == kNoReg) << where;
        EXPECT_TRUE(row.rs1 || insn.rs1 == kNoReg) << where;
        EXPECT_TRUE(row.rs2 || insn.rs2 == kNoReg) << where;
        EXPECT_TRUE(row.args || insn.args.empty()) << where;
      }
    }
  }
}

TEST_P(RtlSuiteTest, CountedLoopsAgreeWithIrdepAndTheParexecPlans) {
  const workloads::Workload& workload = *GetParam();
  std::vector<RtlProgram> programs = programs_of(workload);
  driver::PipelineOptions x4 = driver::PipelineOptions::paper_table2();
  x4.frontend_options.language = workload.language;
  x4.exec_threads = 4;
  programs.push_back(driver::compile_source(workload.source, x4).rtl);
  for (const RtlProgram& prog : programs) {
    for (const RtlFunction& func : prog.functions) {
      const std::vector<LoopSpan> spans = loop_spans(func);
      const irdep::FunctionModel model(prog, func);
      ASSERT_EQ(model.loops().size(), spans.size()) << func.name;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const irdep::LoopShape& shape = model.loops()[i];
        EXPECT_EQ(shape.beg, spans[i].beg);
        EXPECT_EQ(shape.end, spans[i].end);
        EXPECT_EQ(shape.innermost, spans[i].innermost);
        if (!shape.canonical) continue;
        const std::optional<CountedLoop> loop =
            match_counted_loop(func, spans[i]);
        ASSERT_TRUE(loop.has_value()) << func.name << " loop " << shape.beg;
        EXPECT_EQ(loop->top, shape.beg + 1u);
        EXPECT_EQ(loop->exit_branch + 1, shape.body_begin);
        EXPECT_EQ(loop->cont, shape.body_end);
        EXPECT_EQ(loop->backedge, shape.end - 2u);
        EXPECT_EQ(loop->end_label, shape.end - 1u);
      }
      for (const LoopPlan& plan : func.parexec) {
        const irdep::LoopShape* shape = model.loop_at(plan.loop_beg);
        ASSERT_NE(shape, nullptr) << func.name;
        const std::optional<CountedLoop> loop = match_counted_loop(
            func, {shape->beg, shape->end, shape->innermost});
        ASSERT_TRUE(loop.has_value()) << func.name << " plan " << plan.loop_beg;
        EXPECT_EQ(loop->top + 1, plan.cond_begin);
        EXPECT_EQ(loop->exit_branch, plan.exit_branch);
        EXPECT_EQ(loop->cont, plan.body_end);
        EXPECT_EQ(loop->backedge, plan.backedge);
        EXPECT_EQ(loop->end_label + 1, plan.loop_end);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RtlSuiteTest, ::testing::ValuesIn(suite()),
    [](const ::testing::TestParamInfo<const workloads::Workload*>& info) {
      std::string name;
      for (const char c : info.param->name) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      return name;
    });

}  // namespace
}  // namespace hli::backend
