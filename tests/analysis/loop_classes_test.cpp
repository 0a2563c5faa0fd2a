// Golden per-workload loop-classification report: every loop of all 14
// workloads, classified DOALL / DOACROSS(d) / Serial under irdep facts
// alone and under irdep united with the HLI tables, pinned against
// loop_classes.golden (path injected by CMake).  A classification change
// is a behavior change of the analyzer and must be reviewed, not
// absorbed.  On mismatch the test writes the freshly computed report to
// loop_classes.golden.actual next to the golden; review the diff and copy
// it over when the change is intended.
//
// The same sweep enforces the headline acceptance facts: the suite has
// parallel loops to find (>= 1 DOALL, >= 1 DOACROSS with a concrete
// distance), the HLI tables sharpen the pure-RTL analyzer on at least
// one loop (the checked-in precision gap), and `--audit-deps=fatal`
// compiles every workload cleanly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/irdep/classify.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

#ifndef LOOP_CLASSES_GOLDEN
#error "CMake must define LOOP_CLASSES_GOLDEN"
#endif

namespace hli::irdep {
namespace {

struct SuiteSweep {
  std::string report;
  std::size_t doall = 0;
  std::size_t doacross = 0;
  std::size_t serial = 0;
  std::size_t upgraded = 0;  ///< combined column strictly beats irdep.
};

int rank(LoopClass c) {
  return c == LoopClass::Serial ? 0 : c == LoopClass::Doacross ? 1 : 2;
}

SuiteSweep sweep() {
  SuiteSweep out;
  std::ostringstream report;
  auto options = driver::PipelineOptions::frontend_only();
  options.analyze_loops = true;
  for (const auto& workload : workloads::all_workloads()) {
    const driver::CompiledProgram compiled =
        driver::compile_source(workload.source, options);
    report << "== " << workload.name << " ==\n"
           << render_loop_table(compiled.loop_reports);
    for (const LoopReport& r : compiled.loop_reports) {
      switch (r.irdep_class) {
        case LoopClass::Doall:
          ++out.doall;
          break;
        case LoopClass::Doacross:
          ++out.doacross;
          break;
        case LoopClass::Serial:
          ++out.serial;
          break;
      }
      if (rank(r.combined_class) > rank(r.irdep_class)) ++out.upgraded;
    }
  }
  out.report = report.str();
  return out;
}

TEST(LoopClassesTest, GoldenReportIsStable) {
  const SuiteSweep s = sweep();
  std::ifstream in(LOOP_CLASSES_GOLDEN);
  ASSERT_TRUE(in.good()) << "missing golden file " << LOOP_CLASSES_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() != s.report) {
    std::ofstream actual(std::string(LOOP_CLASSES_GOLDEN) + ".actual");
    actual << s.report;
  }
  EXPECT_EQ(golden.str(), s.report)
      << "loop classification drifted; inspect " << LOOP_CLASSES_GOLDEN
      << ".actual and copy it over the golden if the change is intended";
}

TEST(LoopClassesTest, SuiteHasParallelLoops) {
  const SuiteSweep s = sweep();
  EXPECT_GE(s.doall, 1u);
  EXPECT_GE(s.doacross, 1u);
  EXPECT_GE(s.serial, 1u);
}

TEST(LoopClassesTest, HliSharpensAtLeastOneLoop) {
  // The checked-in precision gap: on at least one workload loop the HLI
  // tables prove independence the pure-RTL analyzer cannot.
  const SuiteSweep s = sweep();
  EXPECT_GE(s.upgraded, 1u);
}

TEST(LoopClassesTest, AuditIsCleanOnEveryWorkload) {
  driver::PipelineOptions options;
  options.audit_deps = driver::VerifyMode::Fatal;
  options.enable_unroll = true;
  options.enable_regalloc = true;
  for (const auto& workload : workloads::all_workloads()) {
    EXPECT_NO_THROW({
      const auto compiled = driver::compile_source(workload.source, options);
      EXPECT_EQ(compiled.stats.audit_findings, 0u) << workload.name;
      EXPECT_GT(compiled.stats.audit_checks, 0u) << workload.name;
    }) << workload.name;
  }
}

}  // namespace
}  // namespace hli::irdep
