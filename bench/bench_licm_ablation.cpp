// LICM ablation (§3.2.2): "a memory reference can be moved out of a loop
// only when there remains no other memory reference in the loop that can
// possibly alias" — natively the GCC oracle blocks nearly every hoist in
// array loops; the HLI alias + LCDD + REF/MOD tables unlock them.
// Also reports the pass's own wall time (licm_function alone, summed over
// the program's functions) as median/min/max over kTrials runs.
// `--json <path>` writes the machine-readable report.
#include <cstdio>
#include <thread>
#include <vector>

#include "backend/licm.hpp"
#include "bench_json.hpp"
#include "frontend/lower.hpp"
#include "backend/mapping.hpp"
#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/query.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

constexpr unsigned kTrials = 5;

struct LicmRun {
  backend::LicmStats stats;
  double pass_ms = 0.0;  ///< licm_function alone, over every function.
};

LicmRun run_licm(const char* source, bool use_hli) {
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(source, diags);
  format::HliFile hli = builder::build_hli(prog);
  backend::RtlProgram rtl = frontend::lower_program(prog);
  LicmRun run;
  for (backend::RtlFunction& func : rtl.functions) {
    const format::HliEntry* entry = hli.find_unit(func.name);
    if (entry == nullptr) continue;
    (void)backend::map_items(func, *entry);
    const query::HliUnitView view(*entry);
    backend::LicmOptions options;
    options.use_hli = use_hli;
    options.view = &view;
    const benchutil::WallTimer pass;
    run.stats += backend::licm_function(func, options);
    run.pass_ms += pass.elapsed_ms();
  }
  return run;
}

/// One run's statistics (every run gives the same) and each run's pass
/// wall time.
struct LicmTrials {
  backend::LicmStats stats;
  std::vector<double> pass_ms;
};

LicmTrials run_trials(const char* source, bool use_hli) {
  LicmTrials trials;
  for (unsigned trial = 0; trial < kTrials; ++trial) {
    const LicmRun run = run_licm(source, use_hli);
    trials.stats = run.stats;
    trials.pass_ms.push_back(run.pass_ms);
  }
  return trials;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;
  benchutil::JsonReport report;
  report.bench = "licm_ablation";
  report.trials = kTrials;
  std::vector<double> native_suite(kTrials, 0.0);
  std::vector<double> hli_suite(kTrials, 0.0);

  std::printf("LICM ablation: loads hoisted out of innermost loops; pass ms = "
              "median of %u trials, nproc %u\n",
              kTrials, std::thread::hardware_concurrency());
  std::printf("%-14s %14s %12s %17s %10s %10s\n", "Benchmark",
              "native hoists", "HLI hoists", "blocked natively",
              "native ms", "HLI ms");
  std::uint64_t native_total = 0;
  std::uint64_t hli_total = 0;
  for (const auto& workload : workloads::all_workloads()) {
    const LicmTrials native_run = run_trials(workload.source, false);
    const LicmTrials assisted_run = run_trials(workload.source, true);
    const backend::LicmStats& native = native_run.stats;
    const backend::LicmStats& assisted = assisted_run.stats;
    for (unsigned trial = 0; trial < kTrials; ++trial) {
      native_suite[trial] += native_run.pass_ms[trial];
      hli_suite[trial] += assisted_run.pass_ms[trial];
    }
    native_total += native.loads_hoisted;
    hli_total += assisted.loads_hoisted;
    std::printf("%-14s %14llu %12llu %17llu %10.3f %10.3f\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(native.loads_hoisted),
                static_cast<unsigned long long>(assisted.loads_hoisted),
                static_cast<unsigned long long>(native.loads_blocked_native),
                benchutil::median(native_run.pass_ms),
                benchutil::median(assisted_run.pass_ms));
    std::vector<benchutil::Metric> metrics = {
        {"native_hoists", static_cast<double>(native.loads_hoisted)},
        {"hli_hoists", static_cast<double>(assisted.loads_hoisted)},
        {"blocked_native", static_cast<double>(native.loads_blocked_native)}};
    for (const auto& spread :
         {benchutil::spread("native_pass_ms", native_run.pass_ms),
          benchutil::spread("hli_pass_ms", assisted_run.pass_ms)}) {
      metrics.insert(metrics.end(), spread.begin(), spread.end());
    }
    report.add(workload.name, std::move(metrics));
  }
  std::vector<benchutil::Metric> suite =
      benchutil::spread("native_pass_ms", native_suite);
  const auto hli = benchutil::spread("hli_pass_ms", hli_suite);
  suite.insert(suite.end(), hli.begin(), hli.end());
  report.add("suite", std::move(suite));
  std::printf("%-14s %14llu %12llu %17s %10.3f %10.3f\n", "total",
              static_cast<unsigned long long>(native_total),
              static_cast<unsigned long long>(hli_total), "",
              benchutil::median(native_suite), benchutil::median(hli_suite));
  std::printf("\nShape: HLI hoists strictly more loads than the native oracle.\n");

  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
