// Regenerates Table 1 of the paper: per-benchmark code size (source
// lines), HLI size (KB), and HLI bytes per source line, with the
// integer/floating-point group means the paper reports (13 / 27 bytes per
// line there; shapes, not absolutes, are expected to match — our workloads
// are mini-C stand-ins, see DESIGN.md §4).
//
// `--jobs N` compiles the workloads on N threads (rows are still printed
// in workload order); `--json <path>` writes the machine-readable report.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "driver/parallel.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;

  const auto& all = workloads::all_workloads();
  std::vector<std::string> sources;
  for (const auto& workload : all) sources.push_back(workload.source);

  // The paper configuration, with counters on: hli.bytes_exported from
  // the telemetry registry cross-checks the ProgramStats size column.
  driver::PipelineOptions options = driver::PipelineOptions::paper_table2();
  options.telemetry.counters = true;
  const std::vector<driver::CompiledProgram> compiled =
      driver::compile_many(sources, options, args.jobs);

  std::printf("Table 1: benchmark program characteristics\n");
  std::printf("%-14s %-7s %12s %10s %14s\n", "Benchmark", "Suite",
              "Code (lines)", "HLI (KB)", "HLI/line (B)");

  double int_sum = 0.0;
  double fp_sum = 0.0;
  std::size_t int_count = 0;
  std::size_t fp_count = 0;
  bool printed_int_mean = false;

  benchutil::JsonReport report;
  report.bench = "table1";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& workload = all[i];
    if (workload.floating_point && !printed_int_mean) {
      std::printf("%-14s %-7s %12s %10s %14.0f\n", "mean", "-", "-", "-",
                  int_sum / static_cast<double>(int_count));
      printed_int_mean = true;
    }
    const double kb = compiled[i].stats.hli_bytes / 1024.0;
    const double per_line =
        static_cast<double>(compiled[i].stats.hli_bytes) /
        static_cast<double>(compiled[i].stats.source_lines);
    std::printf("%-14s %-7s %12zu %10.1f %14.0f\n", workload.name.c_str(),
                workload.suite.c_str(), compiled[i].stats.source_lines, kb,
                per_line);
    report.add(workload.name,
               {{"lines", static_cast<double>(compiled[i].stats.source_lines)},
                {"hli_kb", kb},
                {"hli_bytes_per_line", per_line},
                {"hli_bytes_exported",
                 static_cast<double>(compiled[i].counters.total.value(
                     "hli.bytes_exported"))}});
    if (workload.floating_point) {
      fp_sum += per_line;
      ++fp_count;
    } else {
      int_sum += per_line;
      ++int_count;
    }
  }
  std::printf("%-14s %-7s %12s %10s %14.0f\n", "mean", "-", "-", "-",
              fp_sum / static_cast<double>(fp_count));
  std::printf("\nPaper's means: 13 B/line (integer), 27 B/line (FP); the\n"
              "FP > INT density ordering is the reproduced shape.\n");

  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
