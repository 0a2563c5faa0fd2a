// Regenerates Table 2 of the paper: for every benchmark, the dependence
// queries made in the first instruction scheduling pass, how often the
// native GCC-style analyzer / the HLI / both answer "dependence", the
// resulting DDG edge reduction, and the execution-time speedups from
// HLI-assisted scheduling on the R4600-like and R10000-like machine
// models.  Shapes to compare against the paper: mdljdp2/mdljsp2/tomcatv/
// swim reduce >85-90%, mgrid the least; integer programs speed up less
// than FP; see EXPERIMENTS.md for the full comparison.
//
// `--jobs N` measures the workloads on N threads (row order and every
// number are unchanged — rows are collected per index and printed after);
// `--json <path>` writes the machine-readable report.
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "driver/parallel.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

struct Row {
  std::string name;
  std::uint64_t tests = 0;
  double tests_per_line = 0.0;
  std::uint64_t gcc_yes = 0;
  std::uint64_t hli_yes = 0;
  std::uint64_t combined_yes = 0;
  std::uint64_t edges_pruned = 0;  ///< From the telemetry registry.
  double reduction = 0.0;
  double speedup_r4600 = 1.0;
  double speedup_r10000 = 1.0;
  /// Third column: no HLI at all, the independent RTL-level analyzer
  /// (--irdep-fallback) as the only extra dependence oracle.  How much of
  /// the HLI's DDG pruning can the back end recover without the channel?
  std::uint64_t irdep_yes = 0;      ///< Edges left after irdep pruning.
  double irdep_reduction = 0.0;     ///< vs. the native analyzer alone.
  double irdep_speedup_r10000 = 1.0;
};

Row measure(const workloads::Workload& workload) {
  Row row;
  row.name = workload.name;

  // The instrumented experiment via the named preset; counters on for
  // the HLI leg so the effectiveness column comes straight from the
  // telemetry registry (cross-checkable against `hlic --stats=json`).
  driver::PipelineOptions native = driver::PipelineOptions::paper_table2();
  native.use_hli = false;
  driver::PipelineOptions assisted = driver::PipelineOptions::paper_table2();
  assisted.telemetry.counters = true;
  driver::PipelineOptions fallback = native;
  fallback.irdep_fallback = true;

  const driver::CompiledProgram with_hli =
      driver::compile_source(workload.source, assisted);
  const driver::CompiledProgram without =
      driver::compile_source(workload.source, native);
  const driver::CompiledProgram with_irdep =
      driver::compile_source(workload.source, fallback);

  const auto& s = with_hli.stats.sched;
  row.edges_pruned = with_hli.counters.total.value("sched.ddg_edges_pruned");
  row.tests = s.mem_queries;
  row.tests_per_line =
      static_cast<double>(s.mem_queries) /
      static_cast<double>(with_hli.stats.source_lines);
  row.gcc_yes = s.gcc_yes;
  row.hli_yes = s.hli_yes;
  row.combined_yes = s.combined_yes;
  row.reduction = s.gcc_yes == 0
                      ? 0.0
                      : 100.0 * (1.0 - static_cast<double>(s.combined_yes) /
                                           static_cast<double>(s.gcc_yes));

  const auto& fs = with_irdep.stats.sched;
  row.irdep_yes = fs.gcc_yes - fs.fallback_pruned;
  row.irdep_reduction =
      fs.gcc_yes == 0
          ? 0.0
          : 100.0 * static_cast<double>(fs.fallback_pruned) /
                static_cast<double>(fs.gcc_yes);

  const auto r4600 = machine::r4600();
  const auto r10000 = machine::r10000();
  const auto base_1 = driver::simulate(without, r4600);
  const auto hli_1 = driver::simulate(with_hli, r4600);
  const auto base_2 = driver::simulate(without, r10000);
  const auto hli_2 = driver::simulate(with_hli, r10000);
  const auto irdep_2 = driver::simulate(with_irdep, r10000);
  row.speedup_r4600 =
      static_cast<double>(base_1.cycles) / static_cast<double>(hli_1.cycles);
  row.speedup_r10000 =
      static_cast<double>(base_2.cycles) / static_cast<double>(hli_2.cycles);
  row.irdep_speedup_r10000 =
      static_cast<double>(base_2.cycles) / static_cast<double>(irdep_2.cycles);
  return row;
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
}

void print_row(const Row& r) {
  std::printf("%-14s %8llu %9.2f  %6llu (%3.0f%%) %6llu (%3.0f%%) %6llu (%3.0f%%)"
              "  %8.0f%%   %6.2f   %6.2f\n",
              r.name.c_str(), static_cast<unsigned long long>(r.tests),
              r.tests_per_line, static_cast<unsigned long long>(r.gcc_yes),
              pct(r.gcc_yes, r.tests),
              static_cast<unsigned long long>(r.hli_yes), pct(r.hli_yes, r.tests),
              static_cast<unsigned long long>(r.combined_yes),
              pct(r.combined_yes, r.tests), r.reduction, r.speedup_r4600,
              r.speedup_r10000);
}

void print_mean(const std::vector<Row>& rows) {
  if (rows.empty()) return;
  double tpl = 0.0;
  double gcc = 0.0;
  double hli = 0.0;
  double comb = 0.0;
  double red = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  for (const Row& r : rows) {
    tpl += r.tests_per_line;
    gcc += pct(r.gcc_yes, r.tests);
    hli += pct(r.hli_yes, r.tests);
    comb += pct(r.combined_yes, r.tests);
    red += r.reduction;
    s1 += r.speedup_r4600;
    s2 += r.speedup_r10000;
  }
  const double n = static_cast<double>(rows.size());
  std::printf("%-14s %8s %9.2f  %6s (%3.0f%%) %6s (%3.0f%%) %6s (%3.0f%%)"
              "  %8.0f%%   %6.2f   %6.2f\n",
              "mean", "-", tpl / n, "-", gcc / n, "-", hli / n, "-", comb / n,
              red / n, s1 / n, s2 / n);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;

  // Each row is an independent pair of compilations plus simulations, so
  // they parallelize cleanly; printing happens afterwards in input order.
  const auto& all = workloads::all_workloads();
  std::vector<Row> rows(all.size());
  driver::parallel_for(all.size(), args.jobs,
                       [&](std::size_t i) { rows[i] = measure(all[i]); });

  std::printf("Table 2: dependence tests in the first scheduling pass and "
              "resulting speedups\n");
  std::printf("%-14s %8s %9s  %13s %13s %13s %9s %8s %8s\n", "Benchmark",
              "#tests", "per line", "GCC yes", "HLI yes", "Combined",
              "Reduction", "R4600", "R10000");

  benchutil::JsonReport report;
  report.bench = "table2";
  std::vector<Row> int_rows;
  std::vector<Row> fp_rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Row& row = rows[i];
    print_row(row);
    report.add(row.name,
               {{"tests", static_cast<double>(row.tests)},
                {"tests_per_line", row.tests_per_line},
                {"gcc_yes", static_cast<double>(row.gcc_yes)},
                {"hli_yes", static_cast<double>(row.hli_yes)},
                {"combined_yes", static_cast<double>(row.combined_yes)},
                {"ddg_edges_pruned", static_cast<double>(row.edges_pruned)},
                {"reduction_pct", row.reduction},
                {"speedup_r4600", row.speedup_r4600},
                {"speedup_r10000", row.speedup_r10000},
                {"irdep_yes", static_cast<double>(row.irdep_yes)},
                {"irdep_reduction_pct", row.irdep_reduction},
                {"irdep_speedup_r10000", row.irdep_speedup_r10000}});
    if (all[i].floating_point) {
      fp_rows.push_back(row);
    } else {
      int_rows.push_back(row);
      if (int_rows.size() == 4) print_mean(int_rows);
    }
  }
  print_mean(fp_rows);
  std::printf("\nPaper shape checks: reduction means ~48%% (INT) / ~54%% (FP);\n"
              "mdljdp2/mdljsp2/tomcatv/swim reduce the most, mgrid the least;\n"
              "FP speedups exceed integer speedups.\n");

  // Third column: how far the back end gets with NO HLI channel, using
  // the independent RTL-level analyzer (--irdep-fallback) as its only
  // extra oracle.  Sits between native GCC (reduction 0) and the HLI.
  std::printf("\nThird column: no HLI, independent analyzer as fallback "
              "oracle\n");
  std::printf("%-14s %13s %13s %9s %8s\n", "Benchmark", "GCC yes",
              "Irdep yes", "Reduction", "R10000");
  for (const Row& row : rows) {
    std::printf("%-14s %6llu (%3.0f%%) %6llu (%3.0f%%)  %8.0f%%   %6.2f\n",
                row.name.c_str(),
                static_cast<unsigned long long>(row.gcc_yes),
                pct(row.gcc_yes, row.tests),
                static_cast<unsigned long long>(row.irdep_yes),
                pct(row.irdep_yes, row.tests), row.irdep_reduction,
                row.irdep_speedup_r10000);
  }

  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
