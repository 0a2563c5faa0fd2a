// Full -O2 pipeline ablation: GCC ran CSE -> sched1 -> register
// allocation -> sched2; the paper instruments sched1.  This bench checks
// that the HLI's benefit SURVIVES allocation: with hard registers and
// spill code in place, HLI-assisted scheduling still beats native
// scheduling on the R4600 model, and spill slots (frame refs with known
// offsets) are disambiguated by the native oracle at no HLI cost.
//
// It also times each program's compile under production() — the
// configuration hlid serves, where sched2 runs on unrolled, spilled
// blocks — over kTrials trials, and the share of that compile spent in
// sched2 (its trace spans over the traced compile's wall time).  The
// "suite" JSON row sums each trial's programs.
// `--json <path>` writes the machine-readable report.
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

constexpr unsigned kTrials = 5;

struct CompileTimes {
  std::vector<double> ms;           ///< Untraced compile, per trial.
  std::vector<double> sched2_share;  ///< sched2 / traced compile, per trial.
};

CompileTimes time_production(const workloads::Workload& workload) {
  driver::PipelineOptions options = driver::PipelineOptions::production();
  options.frontend_options.language = workload.language;
  CompileTimes times;
  for (unsigned trial = 0; trial < kTrials; ++trial) {
    {
      const benchutil::WallTimer timer;
      (void)driver::compile_source(workload.source, options);
      times.ms.push_back(timer.elapsed_ms());
    }
    telemetry::Tracer tracer;
    driver::PipelineOptions traced = options;
    traced.telemetry.tracer = &tracer;
    const benchutil::WallTimer timer;
    (void)driver::compile_source(workload.source, traced);
    const double traced_us = timer.elapsed_ms() * 1000.0;
    times.sched2_share.push_back(
        static_cast<double>(tracer.total_us("sched2")) / traced_us);
  }
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;
  benchutil::JsonReport report;
  report.bench = "regalloc";
  report.trials = kTrials;
  std::vector<double> suite_ms(kTrials, 0.0);

  std::printf("Post-register-allocation pipeline (R4600 cycles)\n");
  std::printf("%-14s %12s %12s %8s %8s %9s %10s %7s\n", "Benchmark",
              "native+RA", "HLI+RA", "speedup", "spills", "sched2 q",
              "prod ms", "sched2%");
  for (const auto& workload : workloads::all_workloads()) {
    driver::PipelineOptions assisted = driver::PipelineOptions::paper_table2();
    assisted.enable_regalloc = true;
    driver::PipelineOptions native = assisted;
    native.use_hli = false;

    const driver::CompiledProgram plain =
        driver::compile_source(workload.source, native);
    const driver::CompiledProgram smart =
        driver::compile_source(workload.source, assisted);
    const auto machine = machine::r4600();
    const auto base = driver::simulate(plain, machine);
    const auto fast = driver::simulate(smart, machine);
    const CompileTimes times = time_production(workload);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
      suite_ms[trial] += times.ms[trial];
    }
    std::printf("%-14s %12llu %12llu %7.3f %8llu %9llu %10.2f %6.1f%%\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(fast.cycles),
                static_cast<double>(base.cycles) /
                    static_cast<double>(fast.cycles),
                static_cast<unsigned long long>(smart.stats.regalloc.spilled),
                static_cast<unsigned long long>(smart.stats.sched2.mem_queries),
                benchutil::median(times.ms),
                100.0 * benchutil::median(times.sched2_share));
    std::vector<benchutil::Metric> metrics = {
        {"native_cycles", static_cast<double>(base.cycles)},
        {"hli_cycles", static_cast<double>(fast.cycles)},
        {"speedup", static_cast<double>(base.cycles) /
                        static_cast<double>(fast.cycles)},
        {"spills", static_cast<double>(smart.stats.regalloc.spilled)},
        {"sched2_queries",
         static_cast<double>(smart.stats.sched2.mem_queries)}};
    for (const auto& spread :
         {benchutil::spread("production_compile_ms", times.ms),
          benchutil::spread("sched2_share", times.sched2_share)}) {
      metrics.insert(metrics.end(), spread.begin(), spread.end());
    }
    report.add(workload.name, std::move(metrics));
  }
  report.add("suite", benchutil::spread("production_compile_ms", suite_ms));
  std::printf("production() compile of the suite: %.1f ms (median of %u)\n",
              benchutil::median(suite_ms), kTrials);
  std::printf("\nShape: HLI speedups persist through allocation and the\n"
              "second scheduling pass; spill traffic is native-disambiguated.\n");

  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
