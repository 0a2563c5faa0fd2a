// The production block scheduler (backend/sched.cpp) against the
// quadratic reference it replaced (sched_reference.hpp): the same order
// and every equal DepStats field, on every block the suite schedules at
// both scheduling points, and on seeded random blocks built to stress
// register reuse, calls and HLI-itemized memory references.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/irdep/analyzer.hpp"
#include "analysis/irdep/refmod.hpp"
#include "backend/gcc_alias.hpp"
#include "backend/regalloc.hpp"
#include "backend/sched.hpp"
#include "driver/pipeline.hpp"
#include "hli/query.hpp"
#include "sched_reference.hpp"
#include "workloads/workloads.hpp"

namespace hli::backend {
namespace {

void expect_same_stats(const DepStats& got, const DepStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.mem_queries, want.mem_queries) << where;
  EXPECT_EQ(got.gcc_yes, want.gcc_yes) << where;
  EXPECT_EQ(got.hli_yes, want.hli_yes) << where;
  EXPECT_EQ(got.combined_yes, want.combined_yes) << where;
  EXPECT_EQ(got.call_queries, want.call_queries) << where;
  EXPECT_EQ(got.call_edges_native, want.call_edges_native) << where;
  EXPECT_EQ(got.call_edges_hli, want.call_edges_hli) << where;
  EXPECT_EQ(got.blocks, want.blocks) << where;
  EXPECT_EQ(got.scheduled_insns, want.scheduled_insns) << where;
  EXPECT_EQ(got.fallback_queries, want.fallback_queries) << where;
  EXPECT_EQ(got.fallback_pruned, want.fallback_pruned) << where;
  EXPECT_EQ(got.fallback_pruned_calls, want.fallback_pruned_calls) << where;
}

/// Schedules two copies of `func`, one with each scheduler, and compares
/// them.  Each copy's `line` field (never read by the scheduler) is
/// overwritten with the instruction's original position, so the order
/// is compared exactly even where two instructions are equal.
void expect_same_schedule(const RtlFunction& func, const SchedOptions& options,
                          const std::string& where) {
  RtlFunction mine = func;
  for (std::size_t k = 0; k < mine.insns.size(); ++k) {
    mine.insns[k].line = static_cast<std::uint32_t>(k);
  }
  RtlFunction ref = mine;
  const DepStats got = schedule_function(mine, options);
  const DepStats want = sched_reference::schedule_function(ref, options);
  expect_same_stats(got, want, where);
  ASSERT_EQ(mine.insns.size(), ref.insns.size()) << where;
  for (std::size_t k = 0; k < mine.insns.size(); ++k) {
    ASSERT_EQ(mine.insns[k].line, ref.insns[k].line)
        << where << ": first difference at position " << k;
  }
}

// -- The suite, at both scheduling points -------------------------------------

std::vector<const workloads::Workload*> suite() {
  std::vector<const workloads::Workload*> out;
  for (const auto& w : workloads::all_workloads()) out.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) out.push_back(&w);
  return out;
}

class SchedSuiteTest
    : public ::testing::TestWithParam<const workloads::Workload*> {};

// Compiling with both scheduling passes (and so register allocation) off
// leaves every function at the first scheduling point, with its
// maintained HLI entry.  From there the test runs the pipeline's
// scheduling tail itself: sched1, then under production the register
// allocator and sched2, comparing the two schedulers at each pass.
TEST_P(SchedSuiteTest, EveryBlockMatchesTheReferenceAtBothPasses) {
  const workloads::Workload& workload = *GetParam();
  for (driver::PipelineOptions options :
       {driver::PipelineOptions::paper_table2(),
        driver::PipelineOptions::production()}) {
    options.frontend_options.language = workload.language;
    driver::PipelineOptions unscheduled = options;
    unscheduled.enable_sched = false;
    unscheduled.enable_regalloc = false;
    const driver::CompiledProgram compiled =
        driver::compile_source(workload.source, unscheduled);
    const irdep::ProgramDepInfo program(compiled.rtl);
    // Scalar and batched HLI answers, each with and without the irdep
    // fallback oracle (PipelineOptions::irdep_fallback).
    for (const bool batch : {true, false}) {
      for (const bool fallback : {false, true}) {
        const std::string mode = std::string(batch ? " batched" : " scalar") +
                                 (fallback ? " irdep" : "");
        for (RtlFunction func : compiled.rtl.functions) {
          const format::HliEntry* entry = compiled.hli.find_unit(func.name);
          if (entry == nullptr) continue;  // The pipeline schedules it not.
          const query::HliUnitView view(*entry);
          query::ConflictCache cache;
          irdep::IrdepOracle oracle(program, func);
          SchedOptions sched;
          sched.use_hli = options.use_hli;
          sched.view = &view;
          sched.cache = &cache;
          sched.batch_queries = batch;
          sched.fallback = fallback ? &oracle : nullptr;
          const machine::MachineDesc& mach = options.sched_machine;
          sched.latency = [&mach](const Insn& insn) {
            return mach.latency(insn);
          };

          const std::string where = workload.name + " " + func.name + mode;
          expect_same_schedule(func, sched, where + " sched1");
          (void)schedule_function(func, sched);
          if (!options.enable_regalloc) continue;
          (void)allocate_registers(func, options.regalloc);
          oracle.refresh(func);  // Allocation rewrote the stream.
          expect_same_schedule(func, sched, where + " sched2");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, SchedSuiteTest, ::testing::ValuesIn(suite()),
    [](const ::testing::TestParamInfo<const workloads::Workload*>& info) {
      std::string name;
      for (const char c : info.param->name) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      return name;
    });

// -- Seeded random blocks -----------------------------------------------------

/// splitmix64: the stream, and so each seed's blocks, is the same on
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
/// pointer and a scalar) and call items (one callee that writes an
/// array, one that touches no memory), so random blocks can reuse real
/// items the view answers for.
constexpr const char* kItemSource = R"(
int a[16]; int b[16]; int g;
void touch_a(int k) { a[k] = k; }
int pure(int k) { return k + 1; }
int main() {
  int* p = &b[2];
  int s = 0;
  for (int i = 0; i < 8; i++) {
    a[i] = b[i] + g;
    *p = a[i + 1];
    touch_a(i);
    s = s + pure(i) + b[i + 2];
    g = s;
  }
  return s + a[3] + *p;
}
)";

struct ItemPools {
  std::vector<format::ItemId> mem;
  std::vector<format::ItemId> call;
};

ItemPools pools_of(const RtlFunction& func) {
  ItemPools pools;
  for (const Insn& insn : func.insns) {
    if (is_memory_op(insn.op) && insn.mem.hli_item != format::kNoItem) {
      pools.mem.push_back(insn.mem.hli_item);
    }
    if (insn.op == Opcode::Call && insn.hli_item != format::kNoItem) {
      pools.call.push_back(insn.hli_item);
    }
  }
  return pools;
}

/// One random function of 1-3 blocks over `regs` registers (2-6).  Few
/// registers make reuse dense: an instruction often reads the register
/// it writes, and `rs1 == rs2` comes up by itself and is also forced.
/// With `big` nonzero the function is one block of `big` instructions.
RtlFunction random_function(Rng& rng, const ItemPools& pools,
                            std::size_t big = 0) {
  RtlFunction func;
  func.name = "main";
  const auto regs = static_cast<Reg>(rng.uniform(2, 6));
  func.num_regs = regs;
  const auto reg = [&] { return static_cast<Reg>(rng.below(regs)); };
  const std::size_t blocks = big != 0 ? 1 : rng.uniform(1, 3);
  for (std::size_t b = 0; b < blocks; ++b) {
    if (b != 0) {
      Insn label;
      label.op = Opcode::Label;
      label.label = static_cast<std::int32_t>(b);
      func.insns.push_back(label);
    }
    // Up to 150 instructions, so the bit rows span several words.
    const std::size_t size = big != 0          ? big
                             : rng.chance(1, 4) ? rng.uniform(65, 150)
                                                : rng.uniform(2, 40);
    for (std::size_t k = 0; k < size; ++k) {
      Insn insn;
      switch (rng.below(8)) {
        case 0:
          insn.op = Opcode::LoadImm;
          insn.rd = reg();
          insn.imm = static_cast<std::int64_t>(rng.below(100));
          break;
        case 1:
          insn.op = Opcode::Move;
          insn.rd = reg();
          insn.rs1 = reg();
          break;
        case 2:
        case 3: {
          static constexpr Opcode kArith[] = {Opcode::Add, Opcode::Mul,
                                              Opcode::Sub, Opcode::Div};
          insn.op = kArith[rng.below(4)];
          insn.is_float = rng.chance(1, 3);
          insn.rd = reg();
          insn.rs1 = reg();
          insn.rs2 = rng.chance(1, 4) ? insn.rs1 : reg();
          break;
        }
        case 4:
        case 5:
        case 6: {
          const bool store = rng.chance(1, 2);
          insn.op = store ? Opcode::Store : Opcode::Load;
          insn.rs1 = reg();
          if (store) {
            insn.rs2 = rng.chance(1, 4) ? insn.rs1 : reg();
          } else {
            insn.rd = reg();
          }
          switch (rng.below(3)) {
            case 0:
              insn.mem.base = MemBase::Symbol;
              insn.mem.symbol = static_cast<std::int32_t>(rng.below(3));
              break;
            case 1:
              insn.mem.base = MemBase::Frame;
              insn.mem.frame_offset =
                  static_cast<std::int64_t>(8 * rng.below(4));
              break;
            default:
              insn.mem.base = MemBase::Pointer;
              break;
          }
          insn.mem.offset_known = rng.chance(1, 2);
          insn.mem.const_offset = static_cast<std::int64_t>(4 * rng.below(4));
          if (!pools.mem.empty() && rng.chance(3, 4)) {
            insn.mem.hli_item = pools.mem[rng.below(pools.mem.size())];
          }
          break;
        }
        default:
          insn.op = Opcode::Call;
          insn.callee = rng.chance(1, 2) ? "touch_a" : "pure";
          insn.rd = rng.chance(2, 3) ? reg() : kNoReg;
          for (std::size_t n = rng.below(4); n > 0; --n) {
            insn.args.push_back(reg());
          }
          if (!pools.call.empty() && rng.chance(3, 4)) {
            insn.hli_item = pools.call[rng.below(pools.call.size())];
          }
          break;
      }
      func.insns.push_back(insn);
    }
  }
  return func;
}

TEST(SchedRandomTest, RandomBlocksMatchTheReference) {
  driver::PipelineOptions options = driver::PipelineOptions::paper_table2();
  options.enable_sched = false;
  const driver::CompiledProgram compiled =
      driver::compile_source(kItemSource, options);
  const RtlFunction* main_func = compiled.rtl.find_function("main");
  const format::HliEntry* entry = compiled.hli.find_unit("main");
  ASSERT_NE(main_func, nullptr);
  ASSERT_NE(entry, nullptr);
  const ItemPools pools = pools_of(*main_func);
  ASSERT_FALSE(pools.mem.empty());
  ASSERT_FALSE(pools.call.empty());
  const query::HliUnitView view(*entry);
  const machine::MachineDesc mach = machine::r10000();

  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const RtlFunction func = random_function(rng, pools);
    SchedOptions no_view;  // Unit latencies, native answers only.
    expect_same_schedule(func, no_view, "seed " + std::to_string(seed));

    SchedOptions with_view;
    with_view.use_hli = true;
    with_view.view = &view;
    with_view.batch_queries = (seed & 1) != 0;
    with_view.latency = [&mach](const Insn& insn) {
      return mach.latency(insn);
    };
    expect_same_schedule(func, with_view,
                         "seed " + std::to_string(seed) + " with view");

    SchedOptions view_unused = with_view;  // Counted, not applied.
    view_unused.use_hli = false;
    expect_same_schedule(func, view_unused,
                         "seed " + std::to_string(seed) + " hli off");
    if (::testing::Test::HasFailure()) break;
  }
}

/// A stand-in for the irdep fallback oracle on random blocks, which no
/// program analysis describes: a fixed pseudo-random answer per index
/// pair, so both schedulers get the same answers in any order.
class SeededOracle final : public DepOracle {
 public:
  bool may_conflict(std::size_t a, std::size_t b) override {
    return mix(a, b) % 4 != 0;
  }
  unsigned call_effect(std::size_t call, std::size_t mem) override {
    return static_cast<unsigned>(mix(call, mem) & 3u);
  }
  bool may_carry(std::size_t, std::size_t, std::size_t) override {
    return true;
  }
  void refresh(const RtlFunction&) override {}

 private:
  static std::uint64_t mix(std::size_t a, std::size_t b) {
    Rng rng((std::uint64_t{a} << 32) ^ b);
    return rng.next();
  }
};

// Blocks of 1,000+ instructions, none a multiple of 64 long, so every
// bit row spans many words and ends in a partial one: scalar and batched
// HLI answers, each with and without a fallback oracle.
TEST(SchedRandomTest, LongBlocksMatchTheReference) {
  driver::PipelineOptions options = driver::PipelineOptions::paper_table2();
  options.enable_sched = false;
  const driver::CompiledProgram compiled =
      driver::compile_source(kItemSource, options);
  const RtlFunction* main_func = compiled.rtl.find_function("main");
  const format::HliEntry* entry = compiled.hli.find_unit("main");
  ASSERT_NE(main_func, nullptr);
  ASSERT_NE(entry, nullptr);
  const ItemPools pools = pools_of(*main_func);
  const query::HliUnitView view(*entry);
  const machine::MachineDesc mach = machine::r10000();
  SeededOracle oracle;

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::size_t size = rng.uniform(1000, 1600);
    if (size % 64 == 0) ++size;
    const RtlFunction func = random_function(rng, pools, size);
    for (const bool batch : {true, false}) {
      for (const bool fallback : {false, true}) {
        query::ConflictCache cache;
        SchedOptions sched;
        sched.use_hli = (seed & 1) != 0;
        sched.view = &view;
        sched.cache = &cache;
        sched.batch_queries = batch;
        sched.fallback = fallback ? &oracle : nullptr;
        sched.latency = [&mach](const Insn& insn) {
          return mach.latency(insn);
        };
        expect_same_schedule(func, sched,
                             "seed " + std::to_string(seed) + " size " +
                                 std::to_string(size) +
                                 (batch ? " batched" : " scalar") +
                                 (fallback ? " fallback" : ""));
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
}

// -- The native rule in row form ----------------------------------------------

/// A random memory reference: pointer bases, unknown offsets, symbols
/// against frame slots, and sizes 1/2/4/8 at misaligned offsets that
/// overlap partly.
MemRef random_ref(Rng& rng) {
  MemRef ref;
  switch (rng.below(5)) {
    case 0:
      ref.base = MemBase::Pointer;
      break;
    case 1:
    case 2:
      ref.base = MemBase::Symbol;
      ref.symbol = static_cast<std::int32_t>(rng.below(4)) - 1;
      break;
    default:
      ref.base = MemBase::Frame;
      ref.frame_offset = 8 * static_cast<std::int64_t>(rng.below(4)) - 8;
      ref.symbol = static_cast<std::int32_t>(rng.below(2));
      break;
  }
  ref.offset_known = !rng.chance(1, 6);
  ref.const_offset = static_cast<std::int64_t>(rng.below(40)) - 8;
  static constexpr std::uint8_t kSizes[] = {1, 2, 4, 8};
  ref.size = kSizes[rng.below(4)];
  return ref;
}

TEST(GccRowsTest, RowsMatchThePairRule) {
  GccConflictRows rows;
  std::vector<MemRef> refs;
  std::vector<std::uint64_t> out;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t n = rng.uniform(200, 420);
    refs.clear();
    rows.reset(n);
    for (std::size_t k = 0; k < n; ++k) {
      refs.push_back(random_ref(rng));
      rows.add(k, refs.back());
    }
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const std::size_t limit : {pos, n}) {
        out.assign(limit / 64 + 1, 0);
        rows.row(pos, limit, out.data());
        for (std::size_t i = 0; i < limit; ++i) {
          const bool bit = ((out[i >> 6] >> (i & 63)) & 1u) != 0;
          ASSERT_EQ(bit, gcc_may_conflict(refs[i], refs[pos]))
              << "seed " << seed << ": position " << i << " against " << pos
              << " (limit " << limit << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace hli::backend
