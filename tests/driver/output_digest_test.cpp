// Golden output digest: for each of the 17 suite programs under three
// configurations (paper_table2, production, and paper_table2 with four
// exec threads), the FNV-1a of everything the compiler hands out, pinned
// against output_digest.golden (path injected by CMake).
//
//   rtl:     service::render_rtl of the optimized program (`--dump-rtl`).
//   hli:     the serialized HLI channel (CompiledProgram::hli_text).
//   entries: serialize::write_entry of each maintained HLI entry, in order.
//   plans:   every field of every parexec LoopPlan, function by function.
//
// A refactor of the back-end or the dependence analyzer must keep every
// row byte-identical.  A drifted row prints the freshly computed row, to
// be reviewed and copied over the golden only when the change is intended.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"
#include "hli/serialize.hpp"
#include "service/wire.hpp"
#include "support/string_utils.hpp"
#include "workloads/workloads.hpp"

#ifndef OUTPUT_DIGEST_GOLDEN
#error "CMake must define OUTPUT_DIGEST_GOLDEN"
#endif

namespace hli::driver {
namespace {

using support::fnv1a64;
using support::fnv1a64_mix;
using support::kFnv64Basis;

std::vector<const workloads::Workload*> suite() {
  std::vector<const workloads::Workload*> out;
  for (const auto& w : workloads::all_workloads()) out.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) out.push_back(&w);
  return out;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t plans_digest(const backend::RtlProgram& rtl) {
  std::uint64_t h = kFnv64Basis;
  const auto mix = [&h](std::int64_t v) {
    h = fnv1a64_mix(static_cast<std::uint64_t>(v), h);
  };
  for (const auto& func : rtl.functions) {
    h = fnv1a64(func.name, h);
    mix(static_cast<std::int64_t>(func.parexec.size()));
    for (const auto& p : func.parexec) {
      mix(p.loop_beg);
      mix(p.loop_end);
      mix(p.doall);
      mix(p.distance);
      mix(p.cond_begin);
      mix(p.exit_branch);
      mix(p.body_begin);
      mix(p.body_end);
      mix(p.step_begin);
      mix(p.backedge);
      mix(p.induction);
      mix(p.step);
      mix(static_cast<std::int64_t>(p.iter_defs.size()));
      for (const auto r : p.iter_defs) mix(r);
      mix(static_cast<std::int64_t>(p.reductions.size()));
      for (const auto& red : p.reductions) {
        mix(red.reg);
        mix(static_cast<std::int64_t>(red.kind));
        mix(red.pos);
      }
    }
  }
  return h;
}

struct Config {
  const char* name;
  PipelineOptions options;
};

std::vector<Config> configs() {
  PipelineOptions x4 = PipelineOptions::paper_table2();
  x4.exec_threads = 4;
  return {{"paper_table2", PipelineOptions::paper_table2()},
          {"production", PipelineOptions::production()},
          {"paper_table2_x4", x4}};
}

std::string digest_row(const workloads::Workload& workload,
                       const Config& config) {
  PipelineOptions options = config.options;
  options.frontend_options.language = workload.language;
  const CompiledProgram out = compile_source(workload.source, options);
  std::uint64_t entries = kFnv64Basis;
  for (const auto& entry : out.hli.entries) {
    entries = fnv1a64(serialize::write_entry(entry), entries);
  }
  std::ostringstream row;
  row << workload.name << ' ' << config.name
      << " rtl=" << hex(fnv1a64(service::render_rtl(out)))
      << " hli=" << hex(fnv1a64(out.hli_text)) << " entries=" << hex(entries)
      << " plans=" << hex(plans_digest(out.rtl));
  return row.str();
}

std::map<std::string, std::string> golden_rows() {
  std::map<std::string, std::string> rows;
  std::ifstream in(OUTPUT_DIGEST_GOLDEN);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find(' ');
    rows[line.substr(0, line.find(' ', name_end + 1))] = line;
  }
  return rows;
}

class OutputDigestTest
    : public ::testing::TestWithParam<const workloads::Workload*> {};

TEST_P(OutputDigestTest, MatchesGolden) {
  const workloads::Workload& workload = *GetParam();
  const std::map<std::string, std::string> golden = golden_rows();
  ASSERT_FALSE(golden.empty()) << "missing golden file " << OUTPUT_DIGEST_GOLDEN;
  for (const Config& config : configs()) {
    const std::string actual = digest_row(workload, config);
    const auto it = golden.find(workload.name + ' ' + config.name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden row; actual row:\n" << actual;
      continue;
    }
    EXPECT_EQ(it->second, actual) << "output digest drifted; actual row:\n"
                                  << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, OutputDigestTest, ::testing::ValuesIn(suite()),
    [](const ::testing::TestParamInfo<const workloads::Workload*>& info) {
      std::string name;
      for (const char c : info.param->name) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      return name;
    });

}  // namespace
}  // namespace hli::driver
