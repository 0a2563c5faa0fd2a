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
// run), per program and over the whole suite.  Each wall-time cell is
// the median of 3 trials; the JSON report adds each cell's min and max.
//
// A last table re-measures the dispatch cost model's constants
// (parexec::predict_dispatch) on this host from synthetic kernels run
// with force_dispatch, beside the constants checked into
// src/backend/parexec/runtime.hpp.
//
// `--json <path>` writes the machine-readable report.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "backend/interp.hpp"
#include "backend/parexec/runtime.hpp"
#include "bench_json.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

backend::RunResult run_lanes(const driver::CompiledProgram& compiled,
                             unsigned threads, bool force = false) {
  backend::InterpOptions options;
  options.exec_threads = threads;
  options.force_dispatch = force;
  return backend::run_program(compiled.rtl, "main", nullptr, options);
}

/// One cell: the median of `trials` wall times, and their spread.
struct Cell {
  double median = 0;
  double min = 0;
  double max = 0;
};

/// The interpreter is deterministic, so the only noise is the OS
/// scheduler, and the median shrugs off one bad run.
Cell measure_ms(const driver::CompiledProgram& compiled, unsigned threads,
                bool force = false, int trials = 3) {
  std::vector<double> samples;
  for (int rep = 0; rep < trials; ++rep) {
    const benchutil::WallTimer timer;
    const backend::RunResult run = run_lanes(compiled, threads, force);
    if (!run.ok) {
      std::fprintf(stderr, "bench_parexec: run failed: %s\n",
                   run.error.c_str());
      std::exit(1);
    }
    samples.push_back(timer.elapsed_ms());
  }
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

/// Runs one calibration kernel: `reps` invocations of an inner loop of
/// `trips` iterations, DOALL (`A[i] = A[i] + r`) or DOACROSS(1)
/// (`A[i] = A[i-1] + r`), each followed by `gap` rounds of an unplanned
/// scalar recurrence that keeps the pool idle in between.  Returns the
/// extra wall time per invocation of a forced 4-lane run over a 1-lane
/// run (the median over `trials` interleaved pairs), in ps, and the
/// loop's serial instructions per iteration.
struct KernelCost {
  double extra_ps = 0;
  std::uint64_t per_iter = 0;
  std::uint64_t gap_insns = 0;  ///< Serial instructions between dispatches.
  double insn_ps = 0;  ///< 1-lane wall time per dynamic instruction.
};
KernelCost kernel_cost(int trips, bool doacross, int reps, int gap = 0,
                       int trials = 7) {
  const std::string lo = doacross ? "1" : "0";
  const std::string hi = std::to_string(trips + (doacross ? 1 : 0));
  const std::string src =
      "int A[4096];\n"
      "int main() {\n"
      "  int x = 1;\n"
      "  for (int r = 0; r < " + std::to_string(reps) + "; r = r + 1) {\n"
      "    for (int i = " + lo + "; i < " + hi + "; i = i + 1) {\n"
      "      A[i] = A[i" + (doacross ? " - 1" : "") + "] + r;\n"
      "    }\n"
      "    for (int k = 0; k < " + std::to_string(gap) + "; k = k + 1) {\n"
      "      x = x * 3 + k;\n"
      "    }\n"
      "  }\n"
      "  return (A[1] + x) & 255;\n"
      "}\n";
  driver::PipelineOptions options;
  options.use_hli = true;
  options.enable_unroll = false;  // Keep the inner loop's trip count.
  options.exec_threads = 4;
  const driver::CompiledProgram compiled = driver::compile_source(src, options);
  const std::vector<backend::LoopPlan>& plans =
      compiled.rtl.find_function("main")->parexec;
  if (plans.size() != 1 || plans.front().doall == doacross ||
      (doacross && plans.front().distance != 1)) {
    std::fprintf(stderr, "bench_parexec: a calibration kernel lost its plan\n");
    std::exit(1);
  }
  const backend::LoopPlan& plan = plans.front();
  KernelCost out;
  out.per_iter = (plan.exit_branch - plan.cond_begin) +
                 (plan.body_end - plan.body_begin) +
                 (plan.backedge - plan.step_begin) + 4;
  // Interleave the two lane counts and take the median of the paired
  // differences, so drift in the host's speed cancels.
  std::vector<double> extra;
  std::vector<double> serial;
  for (int trial = 0; trial < trials; ++trial) {
    const double t1 = measure_ms(compiled, 1, false, 1).median;
    const double t4 = measure_ms(compiled, 4, true, 1).median;
    extra.push_back(t4 - t1);
    serial.push_back(t1);
  }
  std::sort(extra.begin(), extra.end());
  std::sort(serial.begin(), serial.end());
  const std::uint64_t insns = run_lanes(compiled, 1).dynamic_insns;
  out.extra_ps = extra[extra.size() / 2] * 1e9 / reps;
  out.gap_insns = insns / static_cast<std::uint64_t>(reps) -
                  out.per_iter * static_cast<std::uint64_t>(trips);
  out.insn_ps = serial[serial.size() / 2] * 1e9 / static_cast<double>(insns);
  return out;
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
  double suite_t[4] = {0, 0, 0, 0};
  for (const workloads::Workload* w : suite) {
    const workloads::Workload& workload = *w;
    driver::PipelineOptions options;
    options.use_hli = true;
    options.exec_threads = 4;  // Attach plans; lanes are chosen per run.
    options.frontend_options.language = workload.language;
    const driver::CompiledProgram compiled =
        driver::compile_source(workload.source, options);

    // One instrumented run for the deterministic counts.  par_insns is
    // thread-count-invariant (chunking never changes the work), so any
    // lane count > 1 yields the same P.  The bound is what the proofs
    // make possible, so its probe dispatches every plan; the second
    // probe counts what the cost model chooses at 4 lanes.
    const backend::RunResult probe = run_lanes(compiled, 4, /*force=*/true);
    const backend::RunResult chosen = run_lanes(compiled, 4);
    if (!probe.ok) {
      std::fprintf(stderr, "bench_parexec: %s failed: %s\n",
                   workload.name.c_str(), probe.error.c_str());
      return 1;
    }
    const std::uint64_t total = probe.dynamic_insns;
    const std::uint64_t par = probe.parexec.par_insns;
    const std::uint64_t ordered = probe.parexec.ordered_insns;
    const double par_pct = total == 0 ? 0.0 : 100.0 * (par - ordered) / total;

    const Cell cells[4] = {measure_ms(compiled, 1), measure_ms(compiled, 2),
                           measure_ms(compiled, 4), measure_ms(compiled, 8)};
    const double t1 = cells[0].median;
    const double t2 = cells[1].median;
    const double t4 = cells[2].median;
    const double t8 = cells[3].median;
    const double b2 = amdahl_bound(total, par, ordered, 2);
    const double b4 = amdahl_bound(total, par, ordered, 4);
    const double b8 = amdahl_bound(total, par, ordered, 8);
    const double minsn = minsn_per_s(total, t1);
    suite_insns += total;
    for (int k = 0; k < 4; ++k) suite_t[k] += cells[k].median;

    std::printf(
        "%-14s %9.2f %9.2f %9.2f %9.2f %5.1f%% %8.2fx %8.2fx %8.2fx %9.1f\n",
        workload.name.c_str(), t1, t2, t4, t8, par_pct, b2, b4, b8, minsn);
    std::vector<benchutil::Metric> metrics;
    for (int k = 0; k < 4; ++k) {
      const std::string key = "wall_ms_t" + std::to_string(1 << k);
      metrics.push_back({key, cells[k].median});
      metrics.push_back({key + "_min", cells[k].min});
      metrics.push_back({key + "_max", cells[k].max});
    }
    metrics.insert(metrics.end(),
               {{"wall_speedup_t4", t4 > 0 ? t1 / t4 : 0.0},
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
                {"invocations_t4",
                 static_cast<double>(chosen.parexec.invocations)},
                {"cost_declines_t4",
                 static_cast<double>(chosen.parexec.cost_declines)},
                {"minsn_per_s_t1", minsn}});
    report.add(workload.name, std::move(metrics));
  }
  const double suite_minsn = minsn_per_s(suite_insns, suite_t[0]);
  std::printf("%-14s %9.2f %9.2f %9.2f %9.2f %46.1f\n", "suite", suite_t[0],
              suite_t[1], suite_t[2], suite_t[3], suite_minsn);
  report.add("suite", {{"wall_ms_t1", suite_t[0]},
                       {"wall_ms_t2", suite_t[1]},
                       {"wall_ms_t4", suite_t[2]},
                       {"wall_ms_t8", suite_t[3]},
                       {"minsn_per_s_t1", suite_minsn}});

  // Cost-model calibration.  A forced 4-lane run of a DOALL kernel with
  // 2 or 4 trips (2 or 4 one-iteration chunks) pays c_dispatch plus one
  // c_chunk per chunk and saves all but one iteration; the difference
  // of the two separates c_chunk.  A DOACROSS(1) kernel of 32 trips
  // (16 two-iteration chunks, 15 waits) saves nothing and adds c_wait.
  constexpr int kReps = 2000;
  const KernelCost doall2 = kernel_cost(2, false, kReps);
  const KernelCost doall4 = kernel_cost(4, false, kReps);
  const KernelCost chain = kernel_cost(32, true, kReps);
  const double insn_ps = 1e6 / suite_minsn;
  const double iter_ps = static_cast<double>(doall4.per_iter) * insn_ps;
  const double chunk_ps = (doall4.extra_ps - doall2.extra_ps + 2 * iter_ps) / 2;
  const double dispatch_ps = doall2.extra_ps - 2 * chunk_ps + iter_ps;
  const double wait_ps = (chain.extra_ps - dispatch_ps - 16 * chunk_ps) / 15;
  // The same 4-trip DOALL kernel with more serial work between its
  // dispatches than the pool's spin window finds the workers parked: its
  // extra over the back-to-back kernel is c_wake.  Dispatched once per
  // run, it pays the pool's thread start-up instead: c_start.
  const KernelCost parked = kernel_cost(4, false, 300, 3000, 21);
  const KernelCost fresh = kernel_cost(4, false, 1, 0, 41);
  const double wake_ps = parked.extra_ps - doall4.extra_ps;
  const double start_ps = fresh.extra_ps - doall4.extra_ps;
  std::printf("\nCost model constants, ps (measured here | checked in)\n");
  std::printf("  c_insn     %10.0f | %10llu  (kernel loop: %.0f)\n", insn_ps,
              static_cast<unsigned long long>(backend::parexec::kInsnPs),
              doall4.insn_ps);
  std::printf("  c_dispatch %10.0f | %10llu\n", dispatch_ps,
              static_cast<unsigned long long>(backend::parexec::kDispatchPs));
  std::printf("  c_chunk    %10.0f | %10llu\n", chunk_ps,
              static_cast<unsigned long long>(backend::parexec::kChunkPs));
  std::printf("  c_wait     %10.0f | %10llu\n", wait_ps,
              static_cast<unsigned long long>(backend::parexec::kWaitPs));
  std::printf("  c_wake     %10.0f | %10llu  (gap: %llu insns)\n", wake_ps,
              static_cast<unsigned long long>(backend::parexec::kWakePs),
              static_cast<unsigned long long>(parked.gap_insns));
  std::printf("  c_start    %10.0f | %10llu\n", start_ps,
              static_cast<unsigned long long>(backend::parexec::kStartPs));
  report.add("cost_model",
             {{"c_insn_ps", insn_ps},
              {"c_insn_ps_kernel", doall4.insn_ps},
              {"c_dispatch_ps", dispatch_ps},
              {"c_chunk_ps", chunk_ps},
              {"c_wait_ps", wait_ps},
              {"c_wake_ps", wake_ps},
              {"c_start_ps", start_ps},
              {"checked_in_c_insn_ps",
               static_cast<double>(backend::parexec::kInsnPs)},
              {"checked_in_c_dispatch_ps",
               static_cast<double>(backend::parexec::kDispatchPs)},
              {"checked_in_c_chunk_ps",
               static_cast<double>(backend::parexec::kChunkPs)},
              {"checked_in_c_wait_ps",
               static_cast<double>(backend::parexec::kWaitPs)},
              {"checked_in_c_wake_ps",
               static_cast<double>(backend::parexec::kWakePs)},
              {"checked_in_c_start_ps",
               static_cast<double>(backend::parexec::kStartPs)}});

  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
