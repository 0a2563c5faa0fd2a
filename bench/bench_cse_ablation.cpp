// Figure 4 ablation: how much does call REF/MOD information help CSE?
// Natively, every call purges all memory-derived value-table entries; with
// HLI, entries the callee provably does not modify survive.  Reports, per
// workload, the entries purged/kept at calls and the loads eliminated,
// and the pass's own wall time (cse_function alone, summed over the
// program's functions) as median/min/max over kTrials runs.
// `--json <path>` writes the machine-readable report.
#include <cstdio>
#include <thread>
#include <vector>

#include "backend/cse.hpp"
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

struct CseRun {
  backend::CseStats stats;
  double pass_ms = 0.0;  ///< cse_function alone, over every function.
};

CseRun run_cse(const char* source, bool use_hli) {
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(source, diags);
  format::HliFile hli = builder::build_hli(prog);
  backend::RtlProgram rtl = frontend::lower_program(prog);
  CseRun run;
  for (backend::RtlFunction& func : rtl.functions) {
    const format::HliEntry* entry = hli.find_unit(func.name);
    if (entry == nullptr) continue;
    (void)backend::map_items(func, *entry);
    const query::HliUnitView view(*entry);
    backend::CseOptions options;
    options.use_hli = use_hli;
    options.view = &view;
    const benchutil::WallTimer pass;
    run.stats += backend::cse_function(func, options);
    run.pass_ms += pass.elapsed_ms();
  }
  return run;
}

/// One run's statistics (every run gives the same) and each run's pass
/// wall time.
struct CseTrials {
  backend::CseStats stats;
  std::vector<double> pass_ms;
};

CseTrials run_trials(const char* source, bool use_hli) {
  CseTrials trials;
  for (unsigned trial = 0; trial < kTrials; ++trial) {
    const CseRun run = run_cse(source, use_hli);
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
  report.bench = "cse_ablation";
  report.trials = kTrials;
  std::vector<double> native_suite(kTrials, 0.0);
  std::vector<double> hli_suite(kTrials, 0.0);

  std::printf("CSE call REF/MOD ablation (Figure 4); pass ms = median of %u "
              "trials, nproc %u\n",
              kTrials, std::thread::hardware_concurrency());
  std::printf("%-14s | %29s | %37s\n", "", "native (purge all)",
              "with HLI REF/MOD");
  std::printf("%-14s | %8s %10s %9s | %8s %10s %7s %9s\n", "Benchmark",
              "reused", "purged", "pass ms", "reused", "purged", "kept",
              "pass ms");
  for (const auto& workload : workloads::all_workloads()) {
    const CseTrials native_run = run_trials(workload.source, false);
    const CseTrials assisted_run = run_trials(workload.source, true);
    const backend::CseStats& native = native_run.stats;
    const backend::CseStats& assisted = assisted_run.stats;
    for (unsigned trial = 0; trial < kTrials; ++trial) {
      native_suite[trial] += native_run.pass_ms[trial];
      hli_suite[trial] += assisted_run.pass_ms[trial];
    }
    std::printf("%-14s | %8llu %10llu %9.3f | %8llu %10llu %7llu %9.3f\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(native.exprs_reused +
                                                native.loads_reused),
                static_cast<unsigned long long>(native.entries_purged_at_calls),
                benchutil::median(native_run.pass_ms),
                static_cast<unsigned long long>(assisted.exprs_reused +
                                                assisted.loads_reused),
                static_cast<unsigned long long>(assisted.entries_purged_at_calls),
                static_cast<unsigned long long>(assisted.entries_kept_at_calls),
                benchutil::median(assisted_run.pass_ms));
    std::vector<benchutil::Metric> metrics = {
        {"native_reused", static_cast<double>(native.exprs_reused +
                                              native.loads_reused)},
        {"native_purged", static_cast<double>(native.entries_purged_at_calls)},
        {"hli_reused", static_cast<double>(assisted.exprs_reused +
                                           assisted.loads_reused)},
        {"hli_purged", static_cast<double>(assisted.entries_purged_at_calls)},
        {"hli_kept", static_cast<double>(assisted.entries_kept_at_calls)}};
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
  std::printf("suite pass ms: native %.3f, HLI %.3f (median of %u)\n",
              benchutil::median(native_suite), benchutil::median(hli_suite),
              kTrials);
  std::printf("\nShape: call-heavy workloads (espresso, eqntott, ora) keep\n"
              "value-table entries across calls only with REF/MOD info.\n");

  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
