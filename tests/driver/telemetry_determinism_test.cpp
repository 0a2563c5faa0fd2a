// Telemetry determinism contract (docs/observability.md): counter values
// are per-compilation state, so `compile_many --jobs N` must reproduce a
// serial run byte for byte on every workload; spans are schema-valid
// Chrome trace_event JSON; and a compilation with telemetry off collects
// nothing at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "driver/parallel.hpp"
#include "driver/pipeline.hpp"
#include "support/telemetry.hpp"
#include "workloads/workloads.hpp"

namespace hli::driver {
namespace {

std::vector<std::string> all_sources() {
  std::vector<std::string> sources;
  for (const auto& workload : workloads::all_workloads()) {
    sources.push_back(workload.source);
  }
  return sources;
}

void expect_identical_stats(const CompilationStats& serial,
                            const CompilationStats& parallel,
                            const std::string& label) {
  EXPECT_TRUE(serial.total == parallel.total) << label << ": totals differ";
  ASSERT_EQ(serial.per_function.size(), parallel.per_function.size())
      << label << ": per-function attribution count differs";
  for (std::size_t i = 0; i < serial.per_function.size(); ++i) {
    EXPECT_EQ(serial.per_function[i].first, parallel.per_function[i].first)
        << label << ": function order differs at " << i;
    EXPECT_TRUE(serial.per_function[i].second == parallel.per_function[i].second)
        << label << ": counters differ for function "
        << serial.per_function[i].first;
  }
}

TEST(TelemetryDeterminismTest, SerialAndParallelStatsAreIdentical) {
  const std::vector<std::string> sources = all_sources();
  PipelineOptions options = PipelineOptions::paper_table2();
  options.telemetry.counters = true;

  const std::vector<CompiledProgram> serial =
      compile_many(sources, options, /*jobs=*/1);
  const std::vector<CompiledProgram> parallel =
      compile_many(sources, options, /*jobs=*/8);
  ASSERT_EQ(serial.size(), parallel.size());

  const auto& all = workloads::all_workloads();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical_stats(serial[i].counters, parallel[i].counters,
                           all[i].name);
    // Counters were actually collected, not just equal-because-empty.
    EXPECT_FALSE(serial[i].counters.total.empty()) << all[i].name;
    EXPECT_FALSE(serial[i].counters.per_function.empty()) << all[i].name;
  }

  expect_identical_stats(aggregate_counters(serial),
                         aggregate_counters(parallel), "aggregate");
}

TEST(TelemetryDeterminismTest, ProductionPresetIsDeterministicToo) {
  // The full -O2 shape exercises unroll/regalloc/sched2 counters and the
  // binary interchange container.
  const std::vector<std::string> sources = all_sources();
  PipelineOptions options = PipelineOptions::production();
  options.telemetry.counters = true;
  const std::vector<CompiledProgram> serial =
      compile_many(sources, options, /*jobs=*/1);
  const std::vector<CompiledProgram> parallel =
      compile_many(sources, options, /*jobs=*/8);
  expect_identical_stats(aggregate_counters(serial),
                         aggregate_counters(parallel), "production");
}

TEST(TelemetryDeterminismTest, NothingCollectedWhenOff) {
  const CompiledProgram compiled = compile_source(
      workloads::all_workloads().front().source,
      PipelineOptions::paper_table2());
  EXPECT_TRUE(compiled.counters.total.empty());
  EXPECT_TRUE(compiled.counters.per_function.empty());
  // And nothing leaked into an ambient thread-local sink either.
  EXPECT_EQ(telemetry::current_counters(), nullptr);
  EXPECT_EQ(telemetry::current_tracer(), nullptr);
}

TEST(TelemetryDeterminismTest, SchedPruningCountersMatchDepStats) {
  // The CI gate's counter (`sched.ddg_edges_pruned`) must agree with the
  // first-pass DepStats it is derived from, and must be absent with HLI
  // off.
  const workloads::Workload& workload = *workloads::find_workload("102.swim");
  PipelineOptions options = PipelineOptions::paper_table2();
  options.telemetry.counters = true;
  const CompiledProgram with_hli = compile_source(workload.source, options);
  const auto& sched = with_hli.stats.sched;
  ASSERT_GT(sched.gcc_yes, sched.combined_yes);
  EXPECT_EQ(with_hli.counters.total.value("sched.ddg_edges_pruned"),
            sched.gcc_yes - sched.combined_yes);
  EXPECT_EQ(with_hli.counters.total.value("sched.mem_queries"),
            sched.mem_queries);

  options.use_hli = false;
  const CompiledProgram no_hli = compile_source(workload.source, options);
  EXPECT_EQ(no_hli.counters.total.value("sched.ddg_edges_pruned"), 0u);
  EXPECT_EQ(no_hli.counters.total.value("sched.call_edges_pruned"), 0u);
}

// Minimal structural check of the trace JSON without a JSON parser: the
// envelope, one complete-event per span, and the required keys on every
// event.
TEST(TelemetryTraceTest, SpansEmitSchemaValidTraceEvents) {
  telemetry::Tracer tracer;
  PipelineOptions options = PipelineOptions::paper_table2();
  options.telemetry.tracer = &tracer;
  const CompiledProgram compiled = compile_source(
      workloads::all_workloads().front().source, options);
  EXPECT_FALSE(compiled.rtl.functions.empty());
  ASSERT_GT(tracer.event_count(), 0u);

  const std::string json = tracer.to_json();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Every event carries the full complete-event schema.
  std::size_t events = 0;
  for (std::size_t pos = json.find("{\"name\":"); pos != std::string::npos;
       pos = json.find("{\"name\":", pos + 1)) {
    const std::size_t end = json.find('}', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string event = json.substr(pos, end - pos + 1);
    EXPECT_NE(event.find("\"cat\":"), std::string::npos) << event;
    EXPECT_NE(event.find("\"ph\":\"X\""), std::string::npos) << event;
    EXPECT_NE(event.find("\"ts\":"), std::string::npos) << event;
    EXPECT_NE(event.find("\"dur\":"), std::string::npos) << event;
    EXPECT_NE(event.find("\"pid\":1"), std::string::npos) << event;
    EXPECT_NE(event.find("\"tid\":"), std::string::npos) << event;
    ++events;
  }
  EXPECT_EQ(events, tracer.event_count());

  // The pipeline phases and per-function spans are present.
  EXPECT_NE(json.find("\"frontend\""), std::string::npos);
  EXPECT_NE(json.find("\"hli-generate\""), std::string::npos);
  EXPECT_NE(json.find("\"sched\""), std::string::npos);
}

TEST(TelemetryTraceTest, CompileManySpansCoverEveryInput) {
  // One shared tracer across a parallel compile_many: every input's
  // compile-unit span lands in the one trace.
  telemetry::Tracer tracer;
  const std::vector<std::string> sources = all_sources();
  PipelineOptions options = PipelineOptions::paper_table2();
  options.telemetry.tracer = &tracer;
  const std::vector<CompiledProgram> compiled =
      compile_many(sources, options, /*jobs=*/4);
  EXPECT_EQ(compiled.size(), sources.size());
  const std::string json = tracer.to_json();
  // Each input contributes at least frontend + sched spans.
  std::size_t frontend_spans = 0;
  for (std::size_t pos = json.find("\"frontend\""); pos != std::string::npos;
       pos = json.find("\"frontend\"", pos + 1)) {
    ++frontend_spans;
  }
  EXPECT_EQ(frontend_spans, sources.size());
}

}  // namespace
}  // namespace hli::driver
