// Golden telemetry counters: for each of the 17 suite programs, every
// nonzero counter of `CompiledProgram::counters.total` under paper_table2
// and production, each with batched HLI queries on and off, pinned
// against counters.golden (path injected by CMake).
//
// Counters are the deterministic half of telemetry, so a drifted row
// means a pass asked a different number of questions, built a different
// number of views or matrices, or changed a decision.  The batched and
// scalar query paths must give identical pass counters; only the
// `query.batch_*` rows may differ between the two.  The failure prints
// the freshly computed row, to be reviewed and copied over the golden
// only when the change is intended.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

#ifndef COUNTER_GOLDEN
#error "CMake must define COUNTER_GOLDEN"
#endif

namespace hli::driver {
namespace {

std::vector<const workloads::Workload*> suite() {
  std::vector<const workloads::Workload*> out;
  for (const auto& w : workloads::all_workloads()) out.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) out.push_back(&w);
  return out;
}

/// Rows keyed "<program> <preset> batch=<0|1>", in golden order.
std::vector<std::pair<std::string, std::string>> counter_rows(
    const workloads::Workload& workload) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& [label, preset] :
       {std::pair{"paper_table2", PipelineOptions::paper_table2()},
        std::pair{"production", PipelineOptions::production()}}) {
    for (const bool batch : {true, false}) {
      PipelineOptions options = preset;
      options.frontend_options.language = workload.language;
      options.batch_queries = batch;
      options.telemetry.counters = true;
      const CompiledProgram compiled = compile_source(workload.source, options);
      std::ostringstream key;
      key << workload.name << ' ' << label << " batch=" << batch;
      std::ostringstream row;
      row << key.str();
      for (const auto& [name, value] : compiled.counters.total.nonzero()) {
        row << ' ' << name << '=' << value;
      }
      rows.emplace_back(key.str(), row.str());
    }
  }
  return rows;
}

std::map<std::string, std::string> golden_rows() {
  std::map<std::string, std::string> rows;
  std::ifstream in(COUNTER_GOLDEN);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string program, preset, batch;
    fields >> program >> preset >> batch;
    rows[program + ' ' + preset + ' ' + batch] = line;
  }
  return rows;
}

class CounterGoldenTest
    : public ::testing::TestWithParam<const workloads::Workload*> {};

TEST_P(CounterGoldenTest, MatchesGolden) {
  const std::map<std::string, std::string> golden = golden_rows();
  ASSERT_FALSE(golden.empty()) << "missing golden file " << COUNTER_GOLDEN;
  for (const auto& [key, actual] : counter_rows(*GetParam())) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden row; actual row:\n" << actual;
    EXPECT_EQ(it->second, actual) << "counters drifted; actual row:\n"
                                  << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, CounterGoldenTest, ::testing::ValuesIn(suite()),
    [](const ::testing::TestParamInfo<const workloads::Workload*>& info) {
      std::string name;
      for (const char c : info.param->name) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      return name;
    });

}  // namespace
}  // namespace hli::driver
