// Golden execution-plan column: every loop of the 17 suite programs,
// compiled at exec_threads = 4 under paper_table2 and production with
// --analyze=loops, pinned against loop_plans.golden (path injected by
// CMake).  Each loop row records whether the planner annotated it, the
// plan's class and distance, and why it was not planned; each program
// row records the irdep.loops_* and parexec.plans_* counters.  On
// mismatch the test writes the freshly computed report to
// loop_plans.golden.actual next to the golden; review the diff and copy
// it over when the change is intended.
//
// The same sweep checks that the planner never claims more than the
// classifier's combined column: a planned loop is never SERIAL there,
// and a DOACROSS plan's distance is the combined distance.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "analysis/irdep/classify.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

#ifndef LOOP_PLANS_GOLDEN
#error "CMake must define LOOP_PLANS_GOLDEN"
#endif

namespace hli::driver {
namespace {

bool plan_counter(std::string_view name) {
  return name.substr(0, 12) == "irdep.loops_" ||
         name.substr(0, 14) == "parexec.plans_";
}

void sweep_program(const workloads::Workload& workload,
                   std::ostringstream& report) {
  for (const auto& [label, preset] :
       {std::pair{"paper_table2", PipelineOptions::paper_table2()},
        std::pair{"production", PipelineOptions::production()}}) {
    PipelineOptions options = preset;
    options.frontend_options.language = workload.language;
    options.analyze_loops = true;
    options.exec_threads = 4;
    options.telemetry.counters = true;
    const CompiledProgram compiled = compile_source(workload.source, options);
    report << "== " << workload.name << ' ' << label << " ==\ncounters";
    for (const auto& [name, value] : compiled.counters.total.nonzero()) {
      if (plan_counter(name)) report << ' ' << name << '=' << value;
    }
    report << '\n';
    for (const irdep::LoopReport& r : compiled.loop_reports) {
      report << r.function << ' ' << r.line
             << " planned=" << (r.planned ? "true" : "false")
             << " plan=" << irdep::to_string(r.plan_class)
             << " plan_distance=" << r.plan_distance
             << " plan_reason=" << r.plan_reason << '\n';
      if (!r.planned) continue;
      EXPECT_NE(r.combined_class, irdep::LoopClass::Serial)
          << workload.name << ' ' << label << ' ' << r.function << ':'
          << r.line << " is planned but its combined column is SERIAL";
      if (r.plan_class == irdep::LoopClass::Doacross) {
        EXPECT_EQ(r.plan_distance, r.combined_distance)
            << workload.name << ' ' << label << ' ' << r.function << ':'
            << r.line;
      }
    }
  }
}

TEST(LoopPlansTest, GoldenPlanColumnsAreStableAndWithinTheClassifier) {
  std::ostringstream report;
  for (const auto& w : workloads::all_workloads()) sweep_program(w, report);
  for (const auto& w : workloads::basic_workloads()) sweep_program(w, report);

  std::ifstream in(LOOP_PLANS_GOLDEN);
  ASSERT_TRUE(in.good()) << "missing golden file " << LOOP_PLANS_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() != report.str()) {
    std::ofstream actual(std::string(LOOP_PLANS_GOLDEN) + ".actual");
    actual << report.str();
  }
  EXPECT_EQ(golden.str(), report.str())
      << "plan columns drifted; inspect " << LOOP_PLANS_GOLDEN
      << ".actual and copy it over the golden if the change is intended";
}

}  // namespace
}  // namespace hli::driver
