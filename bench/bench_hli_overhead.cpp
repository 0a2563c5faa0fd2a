// Microbenchmarks (google-benchmark) for the HLI machinery itself: table
// construction, serialization round-trip, import+mapping, and query
// throughput.  Substantiates the paper's "condensed format" claim — the
// back-end can afford to consult the HLI on every scheduling query.
//
// BM_CompilePipeline / BM_CompilePipelineTelemetry are the telemetry
// overhead gate: the full pipeline with the counter/span instrumentation
// compiled in but DISABLED vs the same pipeline with collection on.  The
// disabled leg must track the pre-telemetry baseline (< 1% — every
// instrumented site is one TLS load + branch when no sink is installed).
#include <benchmark/benchmark.h>

#include "frontend/lower.hpp"
#include "backend/mapping.hpp"
#include "driver/pipeline.hpp"
#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/query.hpp"
#include "hli/serialize.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hli;

const workloads::Workload& swim() {
  return *workloads::find_workload("102.swim");
}

frontend::Program parse_swim() {
  support::DiagnosticEngine diags;
  return frontend::compile_to_ast(swim().source, diags);
}

void BM_FrontEndParse(benchmark::State& state) {
  for (auto _ : state) {
    frontend::Program prog = parse_swim();
    benchmark::DoNotOptimize(prog.functions.size());
  }
}
BENCHMARK(BM_FrontEndParse);

void BM_HliBuild(benchmark::State& state) {
  frontend::Program prog = parse_swim();
  for (auto _ : state) {
    format::HliFile file = builder::build_hli(prog);
    benchmark::DoNotOptimize(file.entries.size());
  }
}
BENCHMARK(BM_HliBuild);

void BM_HliWrite(benchmark::State& state) {
  frontend::Program prog = parse_swim();
  const format::HliFile file = builder::build_hli(prog);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = serialize::write_hli(file);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_HliWrite);

void BM_HliRead(benchmark::State& state) {
  frontend::Program prog = parse_swim();
  const std::string text = serialize::write_hli(builder::build_hli(prog));
  for (auto _ : state) {
    format::HliFile file = serialize::read_hli(text);
    benchmark::DoNotOptimize(file.entries.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(text.size()) *
                          state.iterations());
}
BENCHMARK(BM_HliRead);

void BM_ImportAndMap(benchmark::State& state) {
  frontend::Program prog = parse_swim();
  const std::string text = serialize::write_hli(builder::build_hli(prog));
  const backend::RtlProgram rtl_template = frontend::lower_program(prog);
  for (auto _ : state) {
    format::HliFile file = serialize::read_hli(text);
    backend::RtlProgram rtl = rtl_template;
    std::size_t mapped = 0;
    for (backend::RtlFunction& func : rtl.functions) {
      if (const format::HliEntry* entry = file.find_unit(func.name)) {
        mapped += backend::map_items(func, *entry).mapped;
      }
    }
    benchmark::DoNotOptimize(mapped);
  }
}
BENCHMARK(BM_ImportAndMap);

void BM_ViewConstruction(benchmark::State& state) {
  frontend::Program prog = parse_swim();
  const format::HliFile file = builder::build_hli(prog);
  for (auto _ : state) {
    for (const format::HliEntry& entry : file.entries) {
      const query::HliUnitView view(entry);
      benchmark::DoNotOptimize(&view);
    }
  }
}
BENCHMARK(BM_ViewConstruction);

void BM_ConflictQueries(benchmark::State& state) {
  frontend::Program prog = parse_swim();
  const format::HliFile file = builder::build_hli(prog);
  // Collect all memory items of the biggest unit.
  const format::HliEntry* biggest = nullptr;
  for (const auto& entry : file.entries) {
    if (biggest == nullptr ||
        entry.line_table.item_count() > biggest->line_table.item_count()) {
      biggest = &entry;
    }
  }
  const query::HliUnitView view(*biggest);
  std::vector<format::ItemId> items;
  for (const auto& line : biggest->line_table.lines()) {
    for (const auto& item : line.items) {
      if (format::is_memory_item(item.type)) items.push_back(item.id);
    }
  }
  std::uint64_t yes = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        if (view.may_conflict(items[i], items[j]) != query::EquivAcc::None) {
          ++yes;
        }
      }
    }
  }
  benchmark::DoNotOptimize(yes);
  state.SetItemsProcessed(static_cast<std::int64_t>(items.size() *
                                                    (items.size() - 1) / 2) *
                          state.iterations());
}
BENCHMARK(BM_ConflictQueries);

// Whole pipeline, telemetry compiled in but off: the "zero overhead when
// off" claim, measured.
void BM_CompilePipeline(benchmark::State& state) {
  const std::string& source = swim().source;
  const driver::PipelineOptions options =
      driver::PipelineOptions::paper_table2();
  for (auto _ : state) {
    const driver::CompiledProgram compiled =
        driver::compile_source(source, options);
    benchmark::DoNotOptimize(compiled.rtl.functions.size());
  }
}
BENCHMARK(BM_CompilePipeline);

// Same pipeline with counter collection on — the cost of actually
// recording (per-function + per-program sets, no tracer).
void BM_CompilePipelineTelemetry(benchmark::State& state) {
  const std::string& source = swim().source;
  driver::PipelineOptions options = driver::PipelineOptions::paper_table2();
  options.telemetry.counters = true;
  for (auto _ : state) {
    const driver::CompiledProgram compiled =
        driver::compile_source(source, options);
    benchmark::DoNotOptimize(compiled.counters.total.empty());
  }
}
BENCHMARK(BM_CompilePipelineTelemetry);

}  // namespace

BENCHMARK_MAIN();
