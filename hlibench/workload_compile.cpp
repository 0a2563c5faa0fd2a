// `compile`: closed loop, one thread, one driver::compile_source per op
// under PipelineOptions::paper_table2() (the paper's section 4
// configuration and hlic's default).  The front-end, HLI generation,
// HLI import and mapping, and the query-driven CSE/LICM/scheduling passes
// do all the work; the interpreter, regalloc and the service sit idle.
#include "workload.hpp"

namespace hlibench {

using hli::driver::CompiledProgram;
using hli::driver::PipelineOptions;

Report run_compile(const RunConfig& config) {
  Report report;
  const std::vector<Program>& programs = suite();
  const std::size_t n = programs.size();
  const PipelineOptions base = PipelineOptions::paper_table2();
  std::mt19937_64 rng(config.seed);
  const auto deal = [&rng, n] { return shuffled_round(rng, n); };

  // Set-up: one warm compile of every program.  It also gives the
  // reference each timed compile is checked against.
  std::vector<CompiledProgram> reference(n);
  const int setup_reps = config.short_mode ? 1 : 25;
  const auto setup = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      reference[i] = hli::driver::compile_source(
          programs[i].source, options_for(programs[i], base));
    }
  };
  std::vector<double> setup_samples;
  time_setups(setup_reps, setup, setup_samples);
  std::vector<std::uint64_t> digest(n);
  for (std::size_t i = 0; i < n; ++i) digest[i] = compile_digest(reference[i]);

  // One untraced op: compile, time, check.  Returns the op's ms.
  const auto direct_op = [&](std::size_t i, bool& ok) {
    const Clock::time_point start = Clock::now();
    try {
      const CompiledProgram compiled = hli::driver::compile_source(
          programs[i].source, options_for(programs[i], base));
      const double ms = ms_between(start, Clock::now());
      ok = compile_digest(compiled) == digest[i];
      return ms;
    } catch (const hli::support::CompileError&) {
      ok = false;
      return ms_between(start, Clock::now());
    }
  };

  if (!config.trace) {
    Window window;
    run_rounds(config.seconds, 1, deal, [&](std::size_t i, std::uint64_t) {
      bool ok = false;
      const double ms = direct_op(i, ok);
      window.record(ms, ok);
    }, &window);
    if (window.failed() > 0) report.fail("timed compiles differ from set-up");
    time_setups(setup_reps, setup, setup_samples);
    report_end_to_end(report, window, setup_samples,
                      generated_quality(reference, config.oracle, report));
    return report;
  }

  // Traced: every op is a triple (replay with spans, direct compile, and
  // front-end probe) on one program, so the layer figures and the tracing
  // cost come from paired samples.
  CompileTrace trace;
  run_rounds(config.seconds, 1, deal, [&](std::size_t i, std::uint64_t) {
    bool ok = false;
    try {
      const CompiledProgram compiled = traced_compile(
          trace, i, programs[i], options_for(programs[i], base), trace.ops + 1);
      ok = compile_digest(compiled) == digest[i];
    } catch (const hli::support::CompileError&) {
      ok = false;
    }
    ++report.attempted;
    if (!ok) ++report.failed;
  });
  if (report.failed > 0) report.fail("timed compiles differ from set-up");

  LayerMetrics layers;
  layers.add_compile(trace, report);
  layers.add_counters(base);
  // The interpreter runs in this workload only in its output check.
  InterpTrace interp;
  for (std::size_t i = 0; i < n; ++i) {
    if (!matches(traced_run(interp, nullptr, reference[i].rtl, 1),
                 config.oracle.at(programs[i].name))) {
      report.fail(programs[i].name + ": output differs from the oracle");
    }
  }
  layers.add_interp(interp);
  std::map<std::uint64_t, OpTimes> times;
  for (const auto& [index, samples] : trace.by_program) {
    for (const CompileTrace::Sample& sample : samples) {
      times[index].untraced_ms.push_back(sample.direct_ms);
      times[index].traced_ms.push_back(sample.replay_ms);
    }
  }
  layers.set("trace.overhead_pct", overhead_pct(times));
  check_replay_fidelity(report, trace, base);
  layers.report(report);
  if (!config.trace_out.empty() && !trace.spans.write_chrome_trace(config.trace_out)) {
    report.fail("cannot write " + config.trace_out);
  }
  return report;
}

}  // namespace hlibench
