// Golden run surface: for each of the 17 suite programs compiled under
// paper_table2, everything a run reports, pinned against
// run_surface.golden (path injected by CMake).
//
//   1 lane:  return value, dynamic instructions, output hash, emit count,
//            the number of TraceSink events, and the cycles of the
//            R4600 (InOrderSim) and R10000 (OutOfOrderSim) models.
//   4 lanes: every ParexecStats field of a run of the program compiled
//            with exec_threads(4), at default InterpOptions.
//
// The interpreter's encoding and dispatch may change; none of these
// numbers may.  A drifted row is a behavior change of the interpreter or
// the timing models: the failure prints the freshly computed row, to be
// reviewed and copied over the golden only when the change is intended.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "backend/interp.hpp"
#include "driver/pipeline.hpp"
#include "machine/machine.hpp"
#include "workloads/workloads.hpp"

#ifndef RUN_SURFACE_GOLDEN
#error "CMake must define RUN_SURFACE_GOLDEN"
#endif

namespace hli::driver {
namespace {

class CountingSink final : public backend::TraceSink {
 public:
  void on_insn(const backend::TraceEvent& /*event*/) override { ++events; }
  std::uint64_t events = 0;
};

std::vector<const workloads::Workload*> suite() {
  std::vector<const workloads::Workload*> out;
  for (const auto& w : workloads::all_workloads()) out.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) out.push_back(&w);
  return out;
}

std::string surface_row(const workloads::Workload& workload) {
  PipelineOptions options = PipelineOptions::paper_table2();
  options.frontend_options.language = workload.language;
  std::ostringstream row;
  row << workload.name;

  const CompiledProgram serial = compile_source(workload.source, options);
  const backend::RunResult run = backend::run_program(serial.rtl);
  row << " ok=" << run.ok << " ret=" << run.return_value
      << " insns=" << run.dynamic_insns << " hash=" << run.output_hash
      << " emits=" << run.emit_count;
  CountingSink sink;
  const backend::RunResult traced =
      backend::run_program(serial.rtl, "main", &sink);
  row << " events=" << sink.events << " traced_insns=" << traced.dynamic_insns;
  row << " r4600=" << simulate(serial, machine::r4600()).cycles
      << " r10000=" << simulate(serial, machine::r10000()).cycles;

  options.exec_threads = 4;
  const CompiledProgram planned = compile_source(workload.source, options);
  backend::InterpOptions lanes;
  lanes.exec_threads = 4;
  const backend::RunResult par =
      backend::run_program(planned.rtl, "main", nullptr, lanes);
  const backend::ParexecStats& p = par.parexec;
  row << " | par_ok=" << par.ok << " par_insns_total=" << par.dynamic_insns
      << " loops=" << p.loops_parallelized << " invocations=" << p.invocations
      << " chunks=" << p.chunks << " iterations=" << p.par_iterations
      << " par_insns=" << p.par_insns << " ordered=" << p.ordered_insns
      << " waits=" << p.sync_waits << " elided=" << p.sync_elided
      << " fallbacks=" << p.serial_fallbacks
      << " cost_declines=" << p.cost_declines;
  return row.str();
}

std::map<std::string, std::string> golden_rows() {
  std::map<std::string, std::string> rows;
  std::ifstream in(RUN_SURFACE_GOLDEN);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    rows[line.substr(0, line.find(' '))] = line;
  }
  return rows;
}

class RunSurfaceTest
    : public ::testing::TestWithParam<const workloads::Workload*> {};

TEST_P(RunSurfaceTest, MatchesGolden) {
  const workloads::Workload& workload = *GetParam();
  const std::map<std::string, std::string> golden = golden_rows();
  ASSERT_FALSE(golden.empty()) << "missing golden file " << RUN_SURFACE_GOLDEN;
  const auto it = golden.find(workload.name);
  const std::string actual = surface_row(workload);
  ASSERT_NE(it, golden.end()) << "no golden row; actual row:\n" << actual;
  EXPECT_EQ(it->second, actual) << "run surface drifted; actual row:\n"
                                << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RunSurfaceTest, ::testing::ValuesIn(suite()),
    [](const ::testing::TestParamInfo<const workloads::Workload*>& info) {
      std::string name;
      for (const char c : info.param->name) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      return name;
    });

}  // namespace
}  // namespace hli::driver
