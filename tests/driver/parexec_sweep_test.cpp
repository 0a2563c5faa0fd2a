// Whole-suite determinism sweep for the parallel loop runtime: every
// workload, compiled with its parexec plans attached, must produce the
// SAME RunResult on 2 and 4 execution lanes as it does serially — not
// just the emit stream and return value but the dynamic instruction
// count too (chunking must never add or drop work).  A handful of
// structural spot checks pin down that the sweep is not vacuous: the
// DOALL-rich grids actually dispatch at default options (the cost model
// predicts a win), and the DOACROSS workload exercises (and elides)
// post-waits when dispatch is forced past the model.
#include <gtest/gtest.h>

#include "backend/interp.hpp"
#include "backend/parexec/runtime.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace hli::driver {
namespace {

using workloads::Workload;

class ParexecSweepTest : public ::testing::TestWithParam<Workload> {};

// By default every planned loop dispatches, even ones the cost model
// declines, so the sweep covers small inner loops and DOACROSS(1) plans
// and not just the headline kernels.
backend::RunResult run_lanes(const CompiledProgram& compiled,
                             unsigned threads, bool force = true) {
  backend::InterpOptions options;
  options.exec_threads = threads;
  options.force_dispatch = force;
  return backend::run_program(compiled.rtl, "main", nullptr, options);
}

void expect_same_stats(const backend::ParexecStats& a,
                       const backend::ParexecStats& b, unsigned threads) {
  EXPECT_EQ(a.loops_parallelized, b.loops_parallelized) << threads;
  EXPECT_EQ(a.invocations, b.invocations) << threads;
  EXPECT_EQ(a.chunks, b.chunks) << threads;
  EXPECT_EQ(a.par_iterations, b.par_iterations) << threads;
  EXPECT_EQ(a.par_insns, b.par_insns) << threads;
  EXPECT_EQ(a.ordered_insns, b.ordered_insns) << threads;
  EXPECT_EQ(a.sync_waits, b.sync_waits) << threads;
  EXPECT_EQ(a.sync_elided, b.sync_elided) << threads;
  EXPECT_EQ(a.serial_fallbacks, b.serial_fallbacks) << threads;
  EXPECT_EQ(a.cost_declines, b.cost_declines) << threads;
}

TEST_P(ParexecSweepTest, ThreadedRunsMatchSerialExactly) {
  PipelineOptions options;
  options.use_hli = true;
  options.exec_threads = 4;  // Attach plans.
  const CompiledProgram compiled = compile_source(GetParam().source, options);

  const backend::RunResult serial = run_lanes(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  for (unsigned threads : {2u, 4u}) {
    const backend::RunResult run = run_lanes(compiled, threads);
    ASSERT_TRUE(run.ok) << "threads=" << threads << ": " << run.error;
    EXPECT_EQ(run.return_value, serial.return_value) << "threads=" << threads;
    EXPECT_EQ(run.output_hash, serial.output_hash) << "threads=" << threads;
    EXPECT_EQ(run.emit_count, serial.emit_count) << "threads=" << threads;
    EXPECT_EQ(run.dynamic_insns, serial.dynamic_insns)
        << "threads=" << threads;
  }
}

TEST_P(ParexecSweepTest, StatsAreDeterministicAcrossRuns) {
  PipelineOptions options;
  options.use_hli = true;
  options.exec_threads = 4;
  const CompiledProgram compiled = compile_source(GetParam().source, options);
  const backend::RunResult first = run_lanes(compiled, 4);
  const backend::RunResult second = run_lanes(compiled, 4);
  ASSERT_TRUE(first.ok) << first.error;
  expect_same_stats(first.parexec, second.parexec, 4);
  EXPECT_EQ(first.parexec.cost_declines, 0u);
}

// At default options the cost model decides each dispatch; it reads no
// clock, so its decisions, and every counter, repeat exactly.
TEST_P(ParexecSweepTest, StatsAreDeterministicAcrossRunsAtDefaultOptions) {
  PipelineOptions options;
  options.use_hli = true;
  options.exec_threads = 4;
  const CompiledProgram compiled = compile_source(GetParam().source, options);
  const backend::RunResult serial = run_lanes(compiled, 1, false);
  ASSERT_TRUE(serial.ok) << serial.error;
  for (unsigned threads : {2u, 3u, 4u}) {
    const backend::RunResult first = run_lanes(compiled, threads, false);
    const backend::RunResult second = run_lanes(compiled, threads, false);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.dynamic_insns, serial.dynamic_insns) << threads;
    EXPECT_EQ(first.output_hash, serial.output_hash) << threads;
    expect_same_stats(first.parexec, second.parexec, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ParexecSweepTest,
    ::testing::ValuesIn(workloads::all_workloads()),
    [](const ::testing::TestParamInfo<Workload>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '.' || c == '-') c = '_';
      }
      return name;
    });

backend::RunResult run_workload(const char* name, unsigned threads,
                                bool force) {
  const Workload* w = workloads::find_workload(name);
  EXPECT_NE(w, nullptr) << name;
  PipelineOptions options;
  options.use_hli = true;
  options.exec_threads = threads;
  return run_lanes(compile_source(w->source, options), threads, force);
}

// The grid kernels are the paper's DOALL showcases — if they stop
// dispatching, the whole-suite equality tests above pass vacuously.  They
// dispatch at default options: the cost model predicts their win.
TEST(ParexecCoverageTest, GridWorkloadsDispatchDoallLoops) {
  for (const char* name : {"102.swim", "101.tomcatv"}) {
    const backend::RunResult run = run_workload(name, 4, /*force=*/false);
    ASSERT_TRUE(run.ok) << name << ": " << run.error;
    EXPECT_GT(run.parexec.loops_parallelized, 0u) << name;
    EXPECT_GT(run.parexec.par_iterations, 0u) << name;
  }
}

// Every plan of the suite is a counted loop, so the runtime takes each
// trip count in closed form instead of running the predicate once per
// trip; a plan of another shape would make every decline pay for that.
TEST(ParexecCoverageTest, EverySuitePlanCountsItsTripsInClosedForm) {
  std::size_t plans = 0;
  for (const auto* suite :
       {&workloads::all_workloads(), &workloads::basic_workloads()}) {
    for (const Workload& w : *suite) {
      PipelineOptions options;
      options.use_hli = true;
      options.exec_threads = 4;
      options.frontend_options.language = w.language;
      const CompiledProgram compiled = compile_source(w.source, options);
      for (const backend::RtlFunction& func : compiled.rtl.functions) {
        for (const backend::LoopPlan& plan : func.parexec) {
          EXPECT_NE(backend::parexec::closed_form_compare(func, plan),
                    nullptr)
              << w.name << " " << func.name;
          ++plans;
        }
      }
    }
  }
  EXPECT_EQ(plans, 29u);
}

// 141.apsi carries planned DOACROSS(1) loops whose chunks cover most
// post-waits locally: the elision counter is the witness that ordered
// dispatch (not a serial fallback) actually ran.  The cost model declines
// DOACROSS(1), so the dispatch is forced.
TEST(ParexecCoverageTest, ApsiElidesDoacrossPostWaits) {
  const backend::RunResult run = run_workload("141.apsi", 4, /*force=*/true);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GT(run.parexec.sync_elided, 0u);
}

}  // namespace
}  // namespace hli::driver
