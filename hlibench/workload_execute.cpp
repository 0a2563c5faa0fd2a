// `execute_par`: the suite is compiled once in set-up with
// with_exec_threads(4), so parexec plans are attached; each op is one
// backend::run_program of one program at four lanes, checked against the
// oracle.  The interpreter does most of the work (arena set-up and the
// dispatch loop), and this is the only workload where parexec dispatch
// and the worker pool run.  Five of the 14 C programs have no parallel
// work, so it also shows interpreter changes under lanes.
//
// A one-lane variant was dropped: its arena page faults made it the most
// host-sensitive workload (README.md, "Cost and steadiness").
#include <algorithm>

#include "workload.hpp"

namespace hlibench {

using hli::driver::CompiledProgram;
using hli::driver::PipelineOptions;

Report run_execute_par(const RunConfig& config) {
  constexpr unsigned lanes = 4;
  Report report;
  const std::vector<Program>& programs = suite();
  const std::size_t n = programs.size();
  const PipelineOptions base = PipelineOptions::paper_table2().with_exec_threads(4);
  std::mt19937_64 rng(config.seed);
  const auto deal = [&rng, n] { return shuffled_round(rng, n); };

  // Set-up: compile (with the irdep summary and parexec planning).  The
  // traced run compiles through the replay, several paired triples per
  // program, so the planning layers are measured; the fidelity check
  // below proves the programs identical.
  std::vector<CompiledProgram> compiled(n);
  CompileTrace compile_trace;
  const int setup_reps = config.short_mode ? 1 : 25;
  const auto setup = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      compiled[i] = hli::driver::compile_source(
          programs[i].source, options_for(programs[i], base));
    }
  };
  std::vector<double> setup_samples;
  if (!config.trace) {
    time_setups(setup_reps, setup, setup_samples);
  } else {
    const int reps = config.short_mode ? 2 : 30;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        compiled[i] = traced_compile(compile_trace, i, programs[i],
                                     options_for(programs[i], base),
                                     compile_trace.ops + 1);
      }
    }
  }

  hli::backend::InterpOptions interp_options;
  interp_options.exec_threads = lanes;
  // One op: run, time, check against the oracle.  Returns the op's ms.
  const auto direct_op = [&](std::size_t i, bool& ok) {
    const Clock::time_point start = Clock::now();
    const hli::backend::RunResult run = hli::backend::run_program(
        compiled[i].rtl, "main", nullptr, interp_options);
    const double ms = ms_between(start, Clock::now());
    ok = matches(run, config.oracle.at(programs[i].name));
    return ms;
  };
  {
    bool ok = false;
    (void)direct_op(0, ok);  // Warm-up: first-touch of the interpreter.
  }

  if (!config.trace) {
    // The figures' rounds are rank-aligned: round k holds every program's
    // k-th fastest run of the window, so the lowest quarter of rounds is
    // each program's fastest quarter of runs.  A run (60-90 ms) can fall
    // in a short quiet spell of the host that a whole round (about 1.3 s
    // on four lanes, each lane exposed to every other tenant) rarely does.
    struct Run {
      double ms = 0;
      double cpu_ms = 0;
      bool ok = false;
    };
    const auto cpu_ms = [] {
      const Usage usage = usage_self();
      return usage.user_ms + usage.sys_ms;
    };
    std::vector<std::vector<Run>> runs(n);
    Window timed;
    run_rounds(config.seconds, 1, deal, [&](std::size_t i, std::uint64_t) {
      Run run;
      const double cpu_before = cpu_ms();
      run.ms = direct_op(i, run.ok);
      run.cpu_ms = cpu_ms() - cpu_before;
      runs[i].push_back(run);
    }, &timed);
    Window window;
    window.wall_s = timed.wall_s;
    window.peak_rss_mb = timed.peak_rss_mb;
    window.rounds.resize(timed.rounds.size());
    for (std::vector<Run>& program_runs : runs) {
      std::sort(program_runs.begin(), program_runs.end(),
                [](const Run& a, const Run& b) { return a.ms < b.ms; });
      for (std::size_t k = 0; k < program_runs.size(); ++k) {
        const Run& run = program_runs[k];
        window.rounds[k].wall_s += run.ms / 1e3;
        window.rounds[k].cpu_ms += run.cpu_ms;
        window.record(run.ms, run.ok, k);
      }
    }
    if (window.failed() > 0) report.fail("runs differ from the oracle");
    time_setups(setup_reps, setup, setup_samples);
    report_end_to_end(report, window, setup_samples,
                      generated_quality(compiled, config.oracle, report));
    return report;
  }

  // Traced: every op runs its program untraced and traced, in alternating
  // order, so the tracing cost comes from paired samples.
  InterpTrace interp;
  SpanLog run_spans;
  std::map<std::uint64_t, OpTimes> times;
  std::uint64_t op = compile_trace.ops;
  run_rounds(config.seconds, 1, deal, [&](std::size_t i, std::uint64_t) {
    bool untraced_ok = false;
    bool traced_ok = false;
    const auto untraced = [&] {
      times[i].untraced_ms.push_back(direct_op(i, untraced_ok));
    };
    const auto traced = [&] {
      run_spans.set_op(++op);
      double ms = 0;
      traced_ok = matches(traced_run(interp, &run_spans, compiled[i].rtl, lanes, &ms),
                          config.oracle.at(programs[i].name));
      times[i].traced_ms.push_back(ms);
    };
    if (op % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    report.attempted += 2;
    report.failed += (untraced_ok ? 0 : 1) + (traced_ok ? 0 : 1);
  });
  if (report.failed > 0) report.fail("runs differ from the oracle");

  LayerMetrics layers;
  layers.add_compile(compile_trace, report);
  layers.add_counters(base);
  layers.add_interp(interp);
  layers.set("trace.overhead_pct", overhead_pct(times));
  check_replay_fidelity(report, compile_trace, base);
  layers.report(report);
  compile_trace.spans.merge(run_spans);
  if (!config.trace_out.empty() &&
      !compile_trace.spans.write_chrome_trace(config.trace_out)) {
    report.fail("cannot write " + config.trace_out);
  }
  return report;
}

}  // namespace hlibench
