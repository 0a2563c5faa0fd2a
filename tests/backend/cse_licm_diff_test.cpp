// The production CSE and LICM passes (backend/cse.cpp, backend/licm.cpp)
// against the passes they replaced (cse_licm_reference.hpp): the same RTL,
// every equal CseStats / LicmStats field and the same on_load_deleted /
// on_load_hoisted call sequences, on every function of the suite at the
// point where the pipeline runs each pass, and on seeded random functions
// built to stress register redefinition, copy chains, loops that share a
// region, and stores and calls inside loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/irdep/analyzer.hpp"
#include "analysis/irdep/refmod.hpp"
#include "backend/cse.hpp"
#include "backend/licm.hpp"
#include "cse_licm_reference.hpp"
#include "driver/pipeline.hpp"
#include "hli/query.hpp"
#include "workloads/workloads.hpp"

namespace hli::backend {
namespace {

std::string rtl_of(const RtlFunction& func) {
  std::string out;
  append_rtl(out, func);
  return out;
}

/// Runs both CSEs on copies of `func`, each with its own fallback oracle
/// (null for none), and compares everything they produce.
void expect_same_cse(const RtlFunction& func, CseOptions options,
                     DepOracle* mine_oracle, DepOracle* ref_oracle,
                     const std::string& where) {
  RtlFunction mine = func;
  RtlFunction ref = func;
  std::vector<format::ItemId> mine_deleted;
  std::vector<format::ItemId> ref_deleted;
  options.on_load_deleted = [&](format::ItemId item) {
    mine_deleted.push_back(item);
  };
  options.fallback = mine_oracle;
  const CseStats got = cse_function(mine, options);
  options.on_load_deleted = [&](format::ItemId item) {
    ref_deleted.push_back(item);
  };
  options.fallback = ref_oracle;
  const CseStats want = cse_licm_reference::cse_function(ref, options);
  EXPECT_EQ(got.exprs_reused, want.exprs_reused) << where;
  EXPECT_EQ(got.loads_reused, want.loads_reused) << where;
  EXPECT_EQ(got.entries_purged_at_calls, want.entries_purged_at_calls)
      << where;
  EXPECT_EQ(got.entries_kept_at_calls, want.entries_kept_at_calls) << where;
  EXPECT_EQ(got.loads_deleted, want.loads_deleted) << where;
  EXPECT_EQ(mine_deleted, ref_deleted) << where;
  EXPECT_EQ(rtl_of(mine), rtl_of(ref)) << where;
}

/// The same for LICM, with on_load_hoisted's (item, region) sequence.
void expect_same_licm(const RtlFunction& func, LicmOptions options,
                      DepOracle* mine_oracle, DepOracle* ref_oracle,
                      const std::string& where) {
  using Hoist = std::pair<format::ItemId, format::RegionId>;
  RtlFunction mine = func;
  RtlFunction ref = func;
  std::vector<Hoist> mine_hoisted;
  std::vector<Hoist> ref_hoisted;
  options.on_load_hoisted = [&](format::ItemId item, format::RegionId loop) {
    mine_hoisted.emplace_back(item, loop);
  };
  options.fallback = mine_oracle;
  const LicmStats got = licm_function(mine, options);
  options.on_load_hoisted = [&](format::ItemId item, format::RegionId loop) {
    ref_hoisted.emplace_back(item, loop);
  };
  options.fallback = ref_oracle;
  const LicmStats want = cse_licm_reference::licm_function(ref, options);
  EXPECT_EQ(got.pure_hoisted, want.pure_hoisted) << where;
  EXPECT_EQ(got.loads_hoisted, want.loads_hoisted) << where;
  EXPECT_EQ(got.loads_blocked_native, want.loads_blocked_native) << where;
  EXPECT_EQ(got.loads_blocked_hli, want.loads_blocked_hli) << where;
  EXPECT_EQ(mine_hoisted, ref_hoisted) << where;
  EXPECT_EQ(rtl_of(mine), rtl_of(ref)) << where;
}

// -- The suite, where the pipeline runs each pass ------------------------------

std::vector<const workloads::Workload*> suite() {
  std::vector<const workloads::Workload*> out;
  for (const auto& w : workloads::all_workloads()) out.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) out.push_back(&w);
  return out;
}

/// The three configurations: the paper's experiment, production, and
/// HLI off with the irdep fallback oracle (Table 2's third column).
std::vector<std::pair<std::string, driver::PipelineOptions>> configs() {
  driver::PipelineOptions fallback = driver::PipelineOptions::paper_table2();
  fallback.use_hli = false;
  fallback.irdep_fallback = true;
  return {{"paper_table2", driver::PipelineOptions::paper_table2()},
          {"production", driver::PipelineOptions::production()},
          {"irdep_fallback", fallback}};
}

/// Compiles with the pipeline stopped right before CSE (`before_cse`) or
/// right before LICM, so each function comes out as that pass sees it,
/// with its maintained HLI entry.
driver::CompiledProgram compile_up_to(const workloads::Workload& workload,
                                      driver::PipelineOptions options,
                                      bool before_cse) {
  options.frontend_options.language = workload.language;
  if (before_cse) {
    options.enable_cse = false;
    options.enable_constfold = false;
    options.enable_dce = false;
  }
  options.enable_licm = false;
  options.enable_unroll = false;
  options.enable_sched = false;
  options.enable_regalloc = false;
  return driver::compile_source(workload.source, options);
}

class CseLicmSuiteTest
    : public ::testing::TestWithParam<const workloads::Workload*> {};

TEST_P(CseLicmSuiteTest, EveryFunctionMatchesTheReference) {
  const workloads::Workload& workload = *GetParam();
  for (const auto& [name, options] : configs()) {
    for (const bool before_cse : {true, false}) {
      const driver::CompiledProgram compiled =
          compile_up_to(workload, options, before_cse);
      const irdep::ProgramDepInfo program(compiled.rtl);
      for (const RtlFunction& func : compiled.rtl.functions) {
        const format::HliEntry* entry = compiled.hli.find_unit(func.name);
        if (entry == nullptr) continue;  // The pipeline optimizes it not.
        const query::HliUnitView view(*entry);
        irdep::IrdepOracle mine_oracle(program, func);
        irdep::IrdepOracle ref_oracle(program, func);
        DepOracle* mine = options.irdep_fallback ? &mine_oracle : nullptr;
        DepOracle* ref = options.irdep_fallback ? &ref_oracle : nullptr;
        const std::string where = workload.name + " " + func.name + " " + name;
        if (before_cse) {
          CseOptions cse;
          cse.use_hli = options.use_hli;
          cse.view = &view;
          cse.batch_queries = options.batch_queries;
          expect_same_cse(func, cse, mine, ref, where + " cse");
        } else {
          LicmOptions licm;
          licm.use_hli = options.use_hli;
          licm.view = &view;
          licm.batch_queries = options.batch_queries;
          expect_same_licm(func, licm, mine, ref, where + " licm");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, CseLicmSuiteTest, ::testing::ValuesIn(suite()),
    [](const ::testing::TestParamInfo<const workloads::Workload*>& info) {
      std::string name;
      for (const char c : info.param->name) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      return name;
    });

// -- Seeded random functions ---------------------------------------------------

/// splitmix64: the stream, and so each seed's function, is the same on
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
  std::size_t below(std::size_t n) { return next() % n; }
  /// Uniform in [lo, hi].
  std::size_t uniform(std::size_t lo, std::size_t hi) {
    return lo + below(hi - lo + 1);
  }
  /// True with probability num / den.
  bool chance(std::size_t num, std::size_t den) { return below(den) < num; }

 private:
  std::uint64_t state_;
};

/// A small program whose `main` carries memory items (two arrays, a
/// pointer and a scalar), call items (one callee that writes an array,
/// one that touches no memory) and a loop region with LCDD entries, so
/// random functions can reuse real items and a real loop the view answers
/// for.
constexpr const char* kItemSource = R"(
int a[16]; int b[16]; int g;
void touch_a(int k) { a[k] = k; }
int pure(int k) { return k + 1; }
int main() {
  int* p = &b[2];
  int s = 0;
  for (int i = 0; i < 8; i++) {
    a[i + 1] = a[i] + b[i] + g;
    *p = a[i + 1];
    touch_a(i);
    s = s + pure(i) + b[i + 2];
    g = s;
  }
  return s + a[3] + *p;
}
)";

struct Pools {
  std::vector<format::ItemId> mem;
  std::vector<format::ItemId> call;
  /// Loop regions a LoopBeg may carry: main's loop, no region, and one
  /// the view does not know.
  std::vector<format::RegionId> regions{format::kNoRegion, 9999};
};

Pools pools_of(const RtlFunction& func) {
  Pools pools;
  for (const Insn& insn : func.insns) {
    if (is_memory_op(insn.op) && insn.mem.hli_item != format::kNoItem) {
      pools.mem.push_back(insn.mem.hli_item);
    }
    if (insn.op == Opcode::Call && insn.hli_item != format::kNoItem) {
      pools.call.push_back(insn.hli_item);
    }
    if (insn.op == Opcode::LoopBeg) pools.regions.push_back(insn.loop_region);
  }
  return pools;
}

/// A random function over a few "variables" (registers 0..vars-1, which
/// are redefined anywhere, inside and outside loops) and fresh
/// temporaries (each defined once, the shape of lowered expressions), in
/// straight-line code, nested loops and sibling loops whose regions often
/// coincide.  Stores and calls land inside loops too.
///
/// The reference CSE records a register as its own copy, and then loops
/// forever when it reads that register again, if a block redefines a
/// register with the very value it already holds.  Lowering never does
/// that; so that both passes terminate, a redefinition within a block
/// carries an immediate or offset no other instruction uses.
class FunctionGen {
 public:
  FunctionGen(Rng& rng, const Pools& pools) : rng_(rng), pools_(pools) {}

  RtlFunction make() {
    func_.name = "main";
    vars_ = static_cast<Reg>(rng_.uniform(2, 5));
    func_.num_regs = vars_;
    for (std::size_t n = rng_.uniform(1, 4); n > 0; --n) {
      if (rng_.chance(1, 2)) {
        straight(rng_.uniform(1, 12));
      } else {
        loop(rng_.chance(1, 3) ? 2 : 1);
      }
    }
    straight(rng_.uniform(0, 4));
    return std::move(func_);
  }

 private:
  void emit(const Insn& insn) {
    if (is_control(insn.op)) block_defs_.clear();
    func_.insns.push_back(insn);
  }

  void label() {
    Insn insn;
    insn.op = Opcode::Label;
    insn.label = next_label_++;
    emit(insn);
  }

  /// A loop nest `depth` deep; an outer level holds one or two loops.
  void loop(int depth) {
    Insn beg;
    beg.op = Opcode::LoopBeg;
    beg.loop_region = pools_.regions[rng_.below(pools_.regions.size())];
    emit(beg);
    label();
    straight(rng_.uniform(0, 6));
    if (rng_.chance(1, 2)) {  // The exit test splits the body's blocks.
      Insn exit;
      exit.op = Opcode::BranchZ;
      exit.rs1 = read();
      exit.label = next_label_ + 1000;
      emit(exit);
    }
    if (depth > 1) {
      for (std::size_t n = rng_.uniform(1, 2); n > 0; --n) {
        loop(depth - 1);
        straight(rng_.uniform(0, 3));
      }
    } else {
      straight(rng_.uniform(1, 16));
    }
    Insn back;
    back.op = Opcode::Jump;
    back.label = 0;
    emit(back);
    Insn end;
    end.op = Opcode::LoopEnd;
    emit(end);
  }

  Reg var() { return static_cast<Reg>(rng_.below(static_cast<std::size_t>(vars_))); }

  /// A register to read: a variable or an earlier temporary.
  Reg read() {
    if (temps_.empty() || rng_.chance(1, 2)) return var();
    return temps_[temps_.size() - 1 - rng_.below(std::min<std::size_t>(
                                            temps_.size(), 6))];
  }

  /// A register to define: mostly a fresh temporary, else a variable.
  Reg def() {
    if (rng_.chance(2, 5)) return var();
    const Reg r = func_.fresh_reg();
    temps_.push_back(r);
    return r;
  }

  /// Marks `insn.rd` defined in this block; true when it already was.
  bool redefines(const Insn& insn) {
    for (const Reg r : block_defs_) {
      if (r == insn.rd) return true;
    }
    block_defs_.push_back(insn.rd);
    return false;
  }

  std::int64_t unique() { return 1000 + 8 * unique_++; }

  void straight(std::size_t size) {
    for (std::size_t k = 0; k < size; ++k) {
      Insn insn;
      switch (rng_.below(10)) {
        case 0:
          insn.op = Opcode::LoadImm;
          insn.is_float = rng_.chance(1, 4);
          insn.rd = def();
          insn.imm = static_cast<std::int64_t>(rng_.below(4));
          insn.fimm = static_cast<double>(rng_.below(3));
          if (redefines(insn)) {
            insn.imm = unique();
            insn.fimm = static_cast<double>(insn.imm);
          }
          break;
        case 1: {
          // A chain of Moves, each reading the one before.
          Reg from = read();
          for (std::size_t n = rng_.uniform(1, 3); n > 0; --n) {
            Insn move;
            move.op = Opcode::Move;
            move.rs1 = from;
            move.rd = rng_.chance(1, 2) ? var() : def();
            (void)redefines(move);
            emit(move);
            from = move.rd;
          }
          continue;
        }
        case 2:
          insn.op = Opcode::LoadAddr;
          insn.rd = def();
          insn.label = static_cast<std::int32_t>(rng_.below(2));
          insn.imm = static_cast<std::int64_t>(4 * rng_.below(2));
          if (redefines(insn)) insn.imm = unique();
          break;
        case 3:
        case 4: {
          static constexpr Opcode kPure[] = {Opcode::Add, Opcode::Mul,
                                             Opcode::Sub, Opcode::Div,
                                             Opcode::CmpLt, Opcode::Shl,
                                             Opcode::Neg, Opcode::IntToFp};
          insn.op = kPure[rng_.below(8)];
          insn.rd = def();
          insn.rs1 = rng_.chance(1, 4) ? insn.rd : read();
          if (insn.op != Opcode::Neg && insn.op != Opcode::IntToFp) {
            insn.rs2 = rng_.chance(1, 4) ? insn.rs1 : read();
          }
          if (redefines(insn)) insn.imm = unique();
          break;
        }
        case 5:
        case 6:
        case 7: {
          const bool store = rng_.chance(1, 3);
          insn.op = store ? Opcode::Store : Opcode::Load;
          insn.rs1 = read();
          switch (rng_.below(3)) {
            case 0:
              insn.mem.base = MemBase::Symbol;
              insn.mem.symbol = static_cast<std::int32_t>(rng_.below(2));
              break;
            case 1:
              insn.mem.base = MemBase::Frame;
              insn.mem.frame_offset =
                  static_cast<std::int64_t>(8 * rng_.below(2));
              break;
            default:
              insn.mem.base = MemBase::Pointer;
              break;
          }
          insn.mem.offset_known = rng_.chance(2, 3);
          insn.mem.const_offset = static_cast<std::int64_t>(4 * rng_.below(3));
          insn.mem.size = rng_.chance(1, 4) ? 8 : 4;
          if (!pools_.mem.empty() && rng_.chance(3, 4)) {
            insn.mem.hli_item = pools_.mem[rng_.below(pools_.mem.size())];
          }
          if (store) {
            insn.rs2 = read();
          } else {
            insn.rd = rng_.chance(1, 8) ? insn.rs1 : def();
            if (redefines(insn)) insn.mem.const_offset = unique();
          }
          break;
        }
        default:
          insn.op = Opcode::Call;
          insn.callee = rng_.chance(1, 2) ? "touch_a" : "pure";
          for (std::size_t n = rng_.below(3); n > 0; --n) {
            insn.args.push_back(read());
          }
          insn.rd = rng_.chance(2, 3) ? def() : kNoReg;
          if (insn.rd != kNoReg) (void)redefines(insn);
          if (!pools_.call.empty() && rng_.chance(3, 4)) {
            insn.hli_item = pools_.call[rng_.below(pools_.call.size())];
          }
          break;
      }
      emit(insn);
    }
  }

  Rng& rng_;
  const Pools& pools_;
  RtlFunction func_;
  Reg vars_ = 0;
  std::vector<Reg> temps_;
  std::vector<Reg> block_defs_;  ///< Registers defined since the last label.
  std::int32_t next_label_ = 1;
  std::int64_t unique_ = 0;
};

/// A stand-in for the irdep fallback oracle on random functions, which
/// no program analysis describes: a fixed pseudo-random answer per index
/// tuple, so both passes get the same answers exactly when they ask about
/// the same positions.
class SeededOracle final : public DepOracle {
 public:
  bool may_conflict(std::size_t a, std::size_t b) override {
    return mix(a, b) % 4 != 0;
  }
  unsigned call_effect(std::size_t call, std::size_t mem) override {
    return static_cast<unsigned>(mix(call, mem) & 3u);
  }
  bool may_carry(std::size_t loop_beg, std::size_t a, std::size_t b) override {
    return mix(a ^ (loop_beg << 16), b) % 3 != 0;
  }
  void refresh(const RtlFunction&) override {}

 private:
  static std::uint64_t mix(std::size_t a, std::size_t b) {
    Rng rng((std::uint64_t{a} << 32) ^ b);
    return rng.next();
  }
};

TEST(CseLicmRandomTest, RandomFunctionsMatchTheReference) {
  driver::PipelineOptions options = driver::PipelineOptions::paper_table2();
  options.enable_cse = false;
  options.enable_licm = false;
  options.enable_sched = false;
  const driver::CompiledProgram compiled =
      driver::compile_source(kItemSource, options);
  const RtlFunction* main_func = compiled.rtl.find_function("main");
  const format::HliEntry* entry = compiled.hli.find_unit("main");
  ASSERT_NE(main_func, nullptr);
  ASSERT_NE(entry, nullptr);
  const Pools pools = pools_of(*main_func);
  ASSERT_FALSE(pools.mem.empty());
  ASSERT_FALSE(pools.call.empty());
  ASSERT_GT(pools.regions.size(), 2u);
  const query::HliUnitView view(*entry);
  SeededOracle oracle;

  std::uint64_t reused = 0;
  std::uint64_t hoisted = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    const RtlFunction func = FunctionGen(rng, pools).make();
    const std::string where = "seed " + std::to_string(seed);
    // HLI off, HLI on (batched and scalar by seed), each with and without
    // the fallback oracle.
    for (const bool use_hli : {false, true}) {
      for (const bool fallback : {false, true}) {
        DepOracle* oracle_or_null = fallback ? &oracle : nullptr;
        const std::string mode = where + (use_hli ? " hli" : " native") +
                                 (fallback ? " fallback" : "");
        CseOptions cse;
        cse.use_hli = use_hli;
        cse.view = &view;
        cse.batch_queries = (seed & 1) != 0;
        expect_same_cse(func, cse, oracle_or_null, oracle_or_null, mode);

        LicmOptions licm;
        licm.use_hli = use_hli;
        licm.view = &view;
        licm.batch_queries = (seed & 2) != 0;
        expect_same_licm(func, licm, oracle_or_null, oracle_or_null, mode);

        // How much the inputs exercise: counted on the production passes.
        RtlFunction copy = func;
        const CseStats c = cse_function(copy, cse);
        reused += c.exprs_reused + c.loads_reused;
        copy = func;
        const LicmStats l = licm_function(copy, licm);
        hoisted += l.pure_hoisted + l.loads_hoisted;
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  // The generator must reach the rewrites, not only the tables.
  EXPECT_GT(reused, 1000u);
  EXPECT_GT(hoisted, 1000u);
}

}  // namespace
}  // namespace hli::backend
