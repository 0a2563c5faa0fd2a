// Parallel-execution bench: per workload, the interpreter's wall time at
// 1/2/4/8 execution lanes plus the deterministic work-distribution bound
// the dispatched plans admit.  Two numbers per thread count because they
// answer different questions:
//
//   * `wall speedup` is the measured end-to-end ratio on THIS machine.
//     On a host with fewer cores than lanes it sits near (or below) 1.0
//     — the lanes time-slice one core and pay the fork/join overhead
//     with none of the concurrency — so it gates overhead, not scaling.
//   * `bound(N)` is machine-independent: with S = total dynamic
//     instructions, P = instructions inside dispatched chunks, and
//     O <= P the subset under DOACROSS plans (all exact, deterministic
//     interpreter counts), the Amdahl limit S / ((S - P) + O + (P-O)/N).
//     Ordered work counts at speedup 1 — a DOACROSS(d) pipeline admits
//     at most d iterations in flight, and every dispatched plan here has
//     d <= 3 — so the bound is what the DOALL proofs make POSSIBLE on an
//     N-core machine, the reproducible figure the experiment log tracks.
//
// The last column is the serial interpreter's throughput: dynamic
// instructions per second at one lane (Minsn/s, from the median t1
// run), per program and over the whole suite.
//
// `--json <path>` writes the machine-readable report.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "backend/interp.hpp"
#include "bench_json.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

backend::RunResult run_lanes(const driver::CompiledProgram& compiled,
                             unsigned threads) {
  backend::InterpOptions options;
  options.exec_threads = threads;
  return backend::run_program(compiled.rtl, "main", nullptr, options);
}

/// Median-of-3 wall time: the interpreter is deterministic, so the only
/// noise is the OS scheduler, and the median shrugs off one bad run.
double measure_ms(const driver::CompiledProgram& compiled, unsigned threads) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    const benchutil::WallTimer timer;
    const backend::RunResult run = run_lanes(compiled, threads);
    if (!run.ok) {
      std::fprintf(stderr, "bench_parexec: run failed: %s\n",
                   run.error.c_str());
      std::exit(1);
    }
    samples.push_back(timer.elapsed_ms());
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}

double amdahl_bound(std::uint64_t total, std::uint64_t par,
                    std::uint64_t ordered, unsigned lanes) {
  if (total == 0) return 1.0;
  const double serial = static_cast<double>(total - par + ordered);
  const double chunked = static_cast<double>(par - ordered) / lanes;
  return static_cast<double>(total) / (serial + chunked);
}

double minsn_per_s(std::uint64_t insns, double ms) {
  return ms > 0 ? static_cast<double>(insns) / (ms * 1e3) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;
  benchutil::JsonReport report;
  report.bench = "parexec";

  std::printf("Parallel loop execution (wall ms, work-distribution bound)\n");
  std::printf("%-14s %9s %9s %9s %9s %6s %9s %9s %9s %9s\n", "Benchmark",
              "t1 ms", "t2 ms", "t4 ms", "t8 ms", "par%", "bound2", "bound4",
              "bound8", "t1 Minsn/s");

  std::vector<const workloads::Workload*> suite;
  for (const auto& w : workloads::all_workloads()) suite.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) suite.push_back(&w);
  std::uint64_t suite_insns = 0;
  double suite_t1 = 0;
  for (const workloads::Workload* w : suite) {
    const workloads::Workload& workload = *w;
    driver::PipelineOptions options;
    options.use_hli = true;
    options.exec_threads = 4;  // Attach plans; lanes are chosen per run.
    const driver::CompiledProgram compiled = driver::compile_source(
        workload.source, options.with_language(workload.language));

    // One instrumented run for the deterministic counts.  par_insns is
    // thread-count-invariant (chunking never changes the work), so any
    // lane count > 1 yields the same P.
    const backend::RunResult probe = run_lanes(compiled, 4);
    if (!probe.ok) {
      std::fprintf(stderr, "bench_parexec: %s failed: %s\n",
                   workload.name.c_str(), probe.error.c_str());
      return 1;
    }
    const std::uint64_t total = probe.dynamic_insns;
    const std::uint64_t par = probe.parexec.par_insns;
    const std::uint64_t ordered = probe.parexec.ordered_insns;
    const double par_pct = total == 0 ? 0.0 : 100.0 * (par - ordered) / total;

    const double t1 = measure_ms(compiled, 1);
    const double t2 = measure_ms(compiled, 2);
    const double t4 = measure_ms(compiled, 4);
    const double t8 = measure_ms(compiled, 8);
    const double b2 = amdahl_bound(total, par, ordered, 2);
    const double b4 = amdahl_bound(total, par, ordered, 4);
    const double b8 = amdahl_bound(total, par, ordered, 8);
    const double minsn = minsn_per_s(total, t1);
    suite_insns += total;
    suite_t1 += t1;

    std::printf(
        "%-14s %9.2f %9.2f %9.2f %9.2f %5.1f%% %8.2fx %8.2fx %8.2fx %9.1f\n",
        workload.name.c_str(), t1, t2, t4, t8, par_pct, b2, b4, b8, minsn);
    report.add(workload.name,
               {{"wall_ms_t1", t1},
                {"wall_ms_t2", t2},
                {"wall_ms_t4", t4},
                {"wall_ms_t8", t8},
                {"wall_speedup_t4", t4 > 0 ? t1 / t4 : 0.0},
                {"doall_insns_pct", par_pct},
                {"ordered_insns_pct",
                 total == 0 ? 0.0 : 100.0 * ordered / total},
                {"bound_t2", b2},
                {"bound_t4", b4},
                {"bound_t8", b8},
                {"loops_parallelized",
                 static_cast<double>(probe.parexec.loops_parallelized)},
                {"sync_elided",
                 static_cast<double>(probe.parexec.sync_elided)},
                {"minsn_per_s_t1", minsn}});
  }
  std::printf("%-14s %9.2f %76.1f\n", "suite", suite_t1,
              minsn_per_s(suite_insns, suite_t1));
  report.add("suite", {{"wall_ms_t1", suite_t1},
                       {"minsn_per_s_t1", minsn_per_s(suite_insns, suite_t1)}});

  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
