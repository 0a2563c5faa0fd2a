// Differential proof that BlockConflictMatrix answers EXACTLY like the
// scalar HliUnitView — and therefore like the map-based reference oracle.
// Every workload's HLI entry is pushed through all three implementations
// and every pair answer (may_conflict, call REF/MOD, LCDD emptiness) is
// compared on every slot pair.  The scheduler's Table 2 numbers are a
// function of these answers, so "identical on all pairs" here means the
// batched DDG construction cannot change a single edge — which the RTL
// identity test at the bottom then confirms end-to-end.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backend/rtl.hpp"
#include "driver/pipeline.hpp"
#include "frontend/sema.hpp"
#include "hli/batch_query.hpp"
#include "frontend/hligen.hpp"
#include "hli/query.hpp"
#include "hli/reference_query.hpp"
#include "hli/serialize.hpp"
#include "service/wire.hpp"
#include "workloads/workloads.hpp"

namespace hli {
namespace {

using query::BlockConflictMatrix;
using query::EquivAcc;
using query::HliUnitView;
using query::reference::ReferenceUnitView;

struct UnitItems {
  std::vector<format::ItemId> mem;
  std::vector<format::ItemId> calls;
};

/// Memory and call items of a unit, plus deliberately unmapped IDs in the
/// memory list to exercise the conservative (Maybe) planes.
UnitItems collect_items(const format::HliEntry& entry) {
  UnitItems items;
  for (const auto& line : entry.line_table.lines()) {
    for (const auto& item : line.items) {
      if (format::is_memory_item(item.type)) {
        items.mem.push_back(item.id);
      } else {
        items.calls.push_back(item.id);
      }
    }
  }
  items.mem.push_back(entry.next_id);       // Never assigned.
  items.mem.push_back(entry.next_id + 97);  // Far outside the dense arrays.
  return items;
}

void compare_unit(const format::HliEntry& entry, const std::string& label) {
  SCOPED_TRACE(label);
  const HliUnitView dense(entry);
  const ReferenceUnitView ref(entry);
  const UnitItems items = collect_items(entry);

  BlockConflictMatrix matrix;
  matrix.build(dense, items.mem, items.calls);

  // Every listed item must be slotted (build dedups but drops nothing).
  for (const format::ItemId item : items.mem) {
    const std::uint32_t slot = matrix.slot_of(item);
    ASSERT_NE(slot, BlockConflictMatrix::kNoSlot) << "item " << item;
    EXPECT_EQ(matrix.item_at(slot), item);
  }

  // may_conflict: matrix == dense == reference on every slot pair.
  for (const format::ItemId a : items.mem) {
    const std::uint32_t sa = matrix.slot_of(a);
    for (const format::ItemId b : items.mem) {
      const std::uint32_t sb = matrix.slot_of(b);
      const EquivAcc want = dense.may_conflict(a, b);
      ASSERT_EQ(matrix.may_conflict(sa, sb), want)
          << "may_conflict(" << a << ", " << b << ")";
      ASSERT_EQ(ref.may_conflict(a, b), want)
          << "may_conflict(" << a << ", " << b << ")";
      ASSERT_EQ(matrix.conflict(sa, sb), want != EquivAcc::None)
          << "conflict(" << a << ", " << b << ")";
      // The packed row agrees with the single-bit accessor.
      ASSERT_EQ((matrix.conflict_word(sa, sb >> 6) >> (sb & 63)) & 1u,
                matrix.conflict(sa, sb) ? 1u : 0u);
    }
  }

  // Call REF/MOD planes against both scalar implementations.
  for (const format::ItemId call : items.calls) {
    const std::uint32_t sc = matrix.call_slot_of(call);
    ASSERT_NE(sc, BlockConflictMatrix::kNoSlot) << "call " << call;
    for (const format::ItemId mem : items.mem) {
      const query::CallAcc want = dense.get_call_acc(mem, call);
      ASSERT_EQ(matrix.call_acc(matrix.slot_of(mem), sc), want)
          << "call_acc(" << mem << ", " << call << ")";
      ASSERT_EQ(ref.get_call_acc(mem, call), want)
          << "call_acc(" << mem << ", " << call << ")";
    }
  }

  // Loop-carried plane: bit set exactly when get_lcdd is non-empty, for
  // every loop region of the unit (one rebuild per loop, as a pass would).
  for (const auto& region : entry.regions) {
    if (region.type != format::RegionType::Loop) continue;
    matrix.build(dense, items.mem, items.calls, region.id);
    for (const format::ItemId a : items.mem) {
      for (const format::ItemId b : items.mem) {
        const bool want = !dense.get_lcdd(region.id, a, b).empty();
        ASSERT_EQ(matrix.loop_carried(matrix.slot_of(a), matrix.slot_of(b)),
                  want)
            << "loop_carried(" << region.id << ", " << a << ", " << b << ")";
      }
    }
  }
}

TEST(BatchQueryTest, AllWorkloadsAllPairsIdentical) {
  for (const auto& workload : workloads::all_workloads()) {
    support::DiagnosticEngine diags;
    frontend::Program prog = frontend::compile_to_ast(workload.source, diags);
    // Round-trip through the serialized format: the back-end always works
    // from a re-read file, so compare the views the back-end would build.
    const std::string text = serialize::write_hli(builder::build_hli(prog));
    const format::HliFile file = serialize::read_hli(text);
    for (const format::HliEntry& entry : file.entries) {
      compare_unit(entry, workload.name + "/" + entry.unit_name);
    }
  }
}

TEST(BatchQueryTest, UnslottedItemsAnswerConservatively) {
  const workloads::Workload* swim = workloads::find_workload("102.swim");
  ASSERT_NE(swim, nullptr);
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(swim->source, diags);
  const format::HliFile file = builder::build_hli(prog);
  ASSERT_FALSE(file.entries.empty());
  const format::HliEntry& entry = file.entries.front();
  const HliUnitView view(entry);
  const UnitItems items = collect_items(entry);

  BlockConflictMatrix matrix;
  matrix.build(view, items.mem, items.calls);
  EXPECT_EQ(matrix.slot_of(entry.next_id + 1), BlockConflictMatrix::kNoSlot);
  // Out-of-range slots answer like the scalar unknown-item prologue.
  const std::uint32_t bad = BlockConflictMatrix::kNoSlot;
  EXPECT_EQ(matrix.may_conflict(bad, 0), EquivAcc::Maybe);
  EXPECT_EQ(matrix.may_conflict(0, bad), EquivAcc::Maybe);
  EXPECT_TRUE(matrix.conflict(bad, 0));
  EXPECT_FALSE(matrix.loop_carried(bad, 0));
  EXPECT_EQ(matrix.call_acc(0, bad), query::CallAcc::RefMod);
  EXPECT_EQ(matrix.call_acc(bad, 0), query::CallAcc::RefMod);
}

TEST(BatchQueryTest, DuplicatesSlotInFirstOccurrenceOrder) {
  const workloads::Workload* swim = workloads::find_workload("102.swim");
  ASSERT_NE(swim, nullptr);
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(swim->source, diags);
  const format::HliFile file = builder::build_hli(prog);
  const format::HliEntry& entry = file.entries.front();
  const HliUnitView view(entry);
  const UnitItems items = collect_items(entry);
  ASSERT_GE(items.mem.size(), 2u);

  // A block references items repeatedly; slots follow first occurrence.
  const std::vector<format::ItemId> block = {items.mem[1], items.mem[0],
                                             items.mem[1], items.mem[0]};
  BlockConflictMatrix matrix;
  matrix.build(view, block);
  EXPECT_EQ(matrix.size(), 2u);
  EXPECT_EQ(matrix.slot_of(items.mem[1]), 0u);
  EXPECT_EQ(matrix.slot_of(items.mem[0]), 1u);
  EXPECT_EQ(matrix.item_at(0), items.mem[1]);
  EXPECT_EQ(matrix.item_at(1), items.mem[0]);
}

TEST(BatchQueryTest, ArenaRebuildAnswersStayExact) {
  const workloads::Workload* tomcatv = workloads::find_workload("101.tomcatv");
  ASSERT_NE(tomcatv, nullptr);
  support::DiagnosticEngine diags;
  frontend::Program prog =
      frontend::compile_to_ast(tomcatv->source, diags);
  const format::HliFile file = builder::build_hli(prog);

  // One matrix object across every unit and several sub-blocks, the way a
  // pass reuses its scratch arena; each rebuild must answer exactly.
  BlockConflictMatrix matrix;
  for (const format::HliEntry& entry : file.entries) {
    const HliUnitView view(entry);
    const UnitItems items = collect_items(entry);
    for (std::size_t half = 0; half < 2; ++half) {
      std::vector<format::ItemId> block;
      for (std::size_t i = half; i < items.mem.size(); i += 2) {
        block.push_back(items.mem[i]);
      }
      if (block.empty()) continue;
      matrix.build(view, block, items.calls);
      for (const format::ItemId a : block) {
        for (const format::ItemId b : block) {
          ASSERT_EQ(matrix.may_conflict(matrix.slot_of(a), matrix.slot_of(b)),
                    view.may_conflict(a, b))
              << entry.unit_name << ": may_conflict(" << a << ", " << b << ")";
        }
      }
    }
  }
}

TEST(BatchQueryTest, StalenessFollowsGeneration) {
  const workloads::Workload* wc = workloads::find_workload("wc");
  ASSERT_NE(wc, nullptr);
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(wc->source, diags);
  format::HliFile file = builder::build_hli(prog);
  ASSERT_FALSE(file.entries.empty());
  format::HliEntry& entry = file.entries.front();

  const HliUnitView view(entry);
  const UnitItems items = collect_items(entry);
  BlockConflictMatrix matrix;
  EXPECT_FALSE(matrix.built());
  matrix.build(view, items.mem);
  EXPECT_TRUE(matrix.built());
  EXPECT_FALSE(matrix.stale());

  entry.generation++;  // What maintenance does after mutating the tables.
  EXPECT_TRUE(matrix.stale());

  entry.generation--;
  matrix.reset();
  EXPECT_FALSE(matrix.built());
  EXPECT_EQ(matrix.size(), 0u);
}

std::string rtl_dump(const backend::RtlProgram& rtl) {
  std::string out;
  for (const backend::RtlFunction& fn : rtl.functions) {
    out += backend::to_string(fn);
    out += '\n';
  }
  return out;
}

TEST(BatchQueryTest, RtlByteIdenticalBatchingOnAndOff) {
  // The end-to-end form of the bit-identity contract: every program of
  // the suite (14 C + 3 BASIC), under the paper's Table 2 configuration
  // and the full production pipeline (all passes, regalloc, both
  // scheduling passes), must emit byte-identical RTL and statistics with
  // batching on and off.  The scalar path is the reference the batched
  // one answers against.
  std::vector<workloads::Workload> programs = workloads::all_workloads();
  for (const auto& workload : workloads::basic_workloads()) {
    programs.push_back(workload);
  }
  ASSERT_EQ(programs.size(), 17u);
  for (const auto& [label, preset] :
       {std::pair{"paper_table2", driver::PipelineOptions::paper_table2()},
        std::pair{"production", driver::PipelineOptions::production()}}) {
    for (const auto& workload : programs) {
      driver::PipelineOptions options = preset;
      options.frontend_options.language = workload.language;
      const driver::CompiledProgram on =
          driver::compile_source(workload.source, options);
      options.batch_queries = false;
      const driver::CompiledProgram off =
          driver::compile_source(workload.source, options);
      ASSERT_EQ(rtl_dump(on.rtl), rtl_dump(off.rtl))
          << workload.name << " under " << label;
      // Counters are off, so this is ProgramStats alone: every Table 2
      // `sched.*` field and each pass's statistics match too.
      ASSERT_EQ(service::render_program_stats(on),
                service::render_program_stats(off))
          << workload.name << " under " << label;
    }
  }
}

}  // namespace
}  // namespace hli
