#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "frontend/contract.hpp"
#include "machine/machine.hpp"
#include "replay.hpp"

namespace hlibench {

using hli::driver::CompiledProgram;
using hli::driver::PipelineOptions;

void time_setups(int reps, const std::function<void()>& setup,
                 std::vector<double>& samples) {
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    setup();
    samples.push_back(ms_between(start, Clock::now()) / 1e3);
  }
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  const unsigned workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) {
        try {
          body(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

std::uint64_t Window::attempted() const {
  std::uint64_t total = 0;
  for (const Round& round : rounds) total += round.attempted;
  return total;
}

std::uint64_t Window::failed() const {
  std::uint64_t total = 0;
  for (const Round& round : rounds) total += round.failed;
  return total;
}

void run_rounds(double seconds, std::uint64_t min_rounds,
                const std::function<std::vector<std::size_t>()>& deal,
                const std::function<void(std::size_t, std::uint64_t)>& op,
                Window* window) {
  const auto cpu_ms = [] {
    const Usage usage = usage_self();
    return usage.user_ms + usage.sys_ms;
  };
  const Clock::time_point start = Clock::now();
  for (std::uint64_t round = 0;; ++round) {
    const std::vector<std::size_t> slots = deal();
    const double round_cpu = window != nullptr ? cpu_ms() : 0;
    const Clock::time_point round_start = Clock::now();
    if (window != nullptr) window->rounds.emplace_back();
    for (const std::size_t slot : slots) op(slot, round);
    const Clock::time_point round_end = Clock::now();
    if (window != nullptr) {
      Window::Round& r = window->rounds.back();
      r.wall_s = ms_between(round_start, round_end) / 1e3;
      r.cpu_ms = cpu_ms() - round_cpu;
    }
    const double elapsed = ms_between(start, round_end) / 1e3;
    if (round + 1 >= min_rounds && elapsed >= seconds) {
      if (window != nullptr) {
        window->wall_s = elapsed;
        window->peak_rss_mb = peak_rss_mb();
      }
      return;
    }
  }
}

GenQuality generated_quality(const std::vector<CompiledProgram>& compiled,
                             const std::map<std::string, Expected>& oracle,
                             Report& report) {
  GenQuality gen;
  const Clock::time_point start = Clock::now();
  const std::vector<Program>& programs = suite();
  std::vector<hli::driver::SimResult> sims(programs.size());
  parallel_for(programs.size(), [&](std::size_t i) {
    sims[i] = hli::driver::simulate(compiled[i], hli::machine::r10000());
  });
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const hli::driver::SimResult& sim = sims[i];
    if (!matches(sim.run, oracle.at(programs[i].name))) {
      report.fail(programs[i].name + ": output differs from the oracle (" +
                  sim.run.error + ")");
    }
    gen.dyn_insns += static_cast<double>(sim.run.dynamic_insns);
    gen.r10k_cycles += static_cast<double>(sim.cycles);
  }
  report.note("simulated the suite on the R10000 model in " +
              format_number(ms_between(start, Clock::now()) / 1e3) + " s");
  return gen;
}

void report_end_to_end(Report& report, const Window& window,
                       const std::vector<double>& setup_samples,
                       const GenQuality& gen) {
  std::vector<double> latency;  // Every op of the window.
  std::vector<double> ops_per_s;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> cpu_per_op;
  for (const Window::Round& round : window.rounds) {
    // A failed op counts against every latency limit: it takes the
    // round's slowest successful op's time.
    std::vector<double> round_latency = round.latency_ms;
    if (round.failed > 0 && !round_latency.empty()) {
      const double worst =
          *std::max_element(round_latency.begin(), round_latency.end());
      round_latency.insert(round_latency.end(), round.failed, worst);
    }
    ops_per_s.push_back(static_cast<double>(round.attempted - round.failed) /
                        round.wall_s);
    p50.push_back(percentile(round_latency, 50));
    p90.push_back(percentile(round_latency, 90));
    cpu_per_op.push_back(round.cpu_ms /
                         std::max(1.0, static_cast<double>(round.attempted)));
    latency.insert(latency.end(), round_latency.begin(), round_latency.end());
  }
  // Throughput from the rounds with the lowest time per op.
  std::vector<double> s_per_op;
  for (const double rate : ops_per_s) s_per_op.push_back(1.0 / rate);
  report.add("setup_s", lowest_quarter_mean(setup_samples), "s");
  report.add("ops_per_s", 1.0 / lowest_quarter_mean(s_per_op), "ops/s");
  report.add("latency_ms_p50", lowest_quarter_mean(p50), "ms");
  report.add("latency_ms_p90", lowest_quarter_mean(p90), "ms");
  report.add("cpu_ms_per_op", lowest_quarter_mean(cpu_per_op), "ms");
  report.add("peak_rss_mb", window.peak_rss_mb, "MB");
  report.add("gen_dyn_insns", gen.dyn_insns, "count");
  report.add("gen_r10k_cycles", gen.r10k_cycles, "modelled_cycles");

  const std::uint64_t attempted = window.attempted();
  const std::uint64_t failed = window.failed();
  report.attempted += attempted;
  report.failed += failed;
  char line[160];
  const auto [setup_min, setup_max] =
      std::minmax_element(setup_samples.begin(), setup_samples.end());
  std::snprintf(line, sizeof line, "setup: %zu set-ups, %.4f to %.4f s",
                setup_samples.size(), setup_samples.empty() ? 0.0 : *setup_min,
                setup_samples.empty() ? 0.0 : *setup_max);
  report.note(line);
  const auto [slowest, fastest] = std::minmax_element(ops_per_s.begin(), ops_per_s.end());
  std::snprintf(line, sizeof line,
                "window: %zu rounds, %llu ops in %.3f s; round ops_per_s %.4g to %.4g",
                window.rounds.size(), static_cast<unsigned long long>(attempted),
                window.wall_s, ops_per_s.empty() ? 0.0 : *slowest,
                ops_per_s.empty() ? 0.0 : *fastest);
  report.note(line);
  std::snprintf(line, sizeof line, "failed_ratio = %.6f (%llu of %llu ops)",
                static_cast<double>(failed) /
                    std::max(1.0, static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  report.note(line);
  if (!latency.empty()) {
    const std::array<double, 3> q = quartiles(latency);
    std::snprintf(line, sizeof line, "latency_ms quartiles = %.4f / %.4f / %.4f",
                  q[0], q[1], q[2]);
    report.note(line);
  }
  const double tail = tail_percentile(latency.size());
  std::snprintf(line, sizeof line,
                "latency_ms_p%g = %.4f ms (%zu samples, %zu beyond it)", tail,
                percentile(latency, tail), latency.size(),
                samples_beyond(latency.size(), tail));
  report.note(line);
  if (tail != 99 && samples_beyond(latency.size(), 99) >= 10) {
    std::snprintf(line, sizeof line, "latency_ms_p99 = %.4f ms (%zu samples)",
                  percentile(latency, 99), latency.size());
    report.note(line);
  }
}

double overhead_pct(const std::map<std::uint64_t, OpTimes>& times) {
  double untraced = 0;
  double traced = 0;
  for (const auto& [key, t] : times) {
    if (t.untraced_ms.empty() || t.traced_ms.empty()) continue;
    const double weight =
        static_cast<double>(t.untraced_ms.size() + t.traced_ms.size());
    untraced += weight * median(t.untraced_ms);
    traced += weight * median(t.traced_ms);
  }
  return untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
}

CompiledProgram traced_compile(CompileTrace& trace, std::size_t index,
                               const Program& program,
                               const PipelineOptions& options, std::uint64_t op) {
  CompileTrace::Sample sample;
  CompiledProgram compiled;
  const auto replay = [&] {
    trace.spans.set_op(op);
    const std::size_t first = trace.spans.spans().size();
    const Clock::time_point start = Clock::now();
    compiled = replay_compile(program.source, options, &trace.spans);
    sample.replay_ms = ms_between(start, Clock::now());
    sample.self_ms = trace.spans.self_ms(first);
  };
  const auto direct = [&] {
    const Clock::time_point start = Clock::now();
    (void)hli::driver::compile_source(program.source, options);
    sample.direct_ms = ms_between(start, Clock::now());
  };
  // The front-end alone, so hli.generate_ms can be split out of the
  // analyze_unit span.
  const auto probe = [&] {
    const Clock::time_point start = Clock::now();
    (void)hli::frontend::analyze_unit(program.source, options.frontend_options,
                                      options.hli_encoding, false);
    sample.probe_ms = ms_between(start, Clock::now());
  };
  // Successive ops cycle through all six orders, so no call always runs
  // first or always after a particular other one.
  const std::function<void()> calls[3] = {replay, direct, probe};
  static constexpr int kOrders[6][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1},
                                        {0, 2, 1}, {2, 1, 0}, {1, 0, 2}};
  for (const int call : kOrders[op % 6]) calls[call]();
  trace.by_program[index].push_back(std::move(sample));
  ++trace.ops;
  return compiled;
}

hli::backend::RunResult traced_run(InterpTrace& trace, SpanLog* spans,
                                   const hli::backend::RtlProgram& rtl,
                                   unsigned lanes, double* op_ms) {
  hli::backend::InterpOptions options;
  options.exec_threads = lanes;
  const Clock::time_point start = Clock::now();
  hli::backend::RunResult run;
  Usage before;
  Usage after;
  {
    const ScopedSpan span(spans, "interp.run");
    before = usage_self();
    run = hli::backend::run_program(rtl, "main", nullptr, options);
    after = usage_self();
  }
  const double ms = ms_between(start, Clock::now());
  if (op_ms != nullptr) *op_ms = ms;
  trace.lanes = lanes;
  ++trace.runs;
  trace.run_ms += ms;
  trace.cpu_ms += (after.user_ms + after.sys_ms) - (before.user_ms + before.sys_ms);
  trace.sys_ms += after.sys_ms - before.sys_ms;
  trace.minflt += after.minflt - before.minflt;
  trace.insns += static_cast<double>(run.dynamic_insns);
  trace.parexec.invocations += run.parexec.invocations;
  trace.parexec.chunks += run.parexec.chunks;
  trace.parexec.par_iterations += run.parexec.par_iterations;
  trace.parexec.par_insns += run.parexec.par_insns;
  trace.parexec.serial_fallbacks += run.parexec.serial_fallbacks;
  return run;
}

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// The per_layer list of BENCHMARK.json, in its order.
constexpr LayerSpec kLayers[] = {
    {"frontend.analyze_ms", "ms"},
    {"hli.generate_ms", "ms"},
    {"hli.bytes_per_line", "B/line"},
    {"hli.import_ms", "ms"},
    {"hli.view_build_ms", "ms"},
    {"hli.views_built", "count"},
    {"hli.maintain_ms", "ms"},
    {"backend.map_ms", "ms"},
    {"backend.cse_ms", "ms"},
    {"backend.constfold_ms", "ms"},
    {"backend.dce_ms", "ms"},
    {"backend.licm_ms", "ms"},
    {"backend.sched_ms", "ms"},
    {"backend.unroll_ms", "ms"},
    {"backend.regalloc_ms", "ms"},
    {"backend.sched2_ms", "ms"},
    {"sched.mem_queries", "count"},
    {"sched.ddg_edges_pruned", "count"},
    {"query.batch_pairs", "count"},
    {"query.batch_fallbacks", "count"},
    {"regalloc.spilled", "count"},
    {"interp.minsns_per_s", "Minsn/s"},
    {"interp.minflt_per_run", "count"},
    {"interp.sys_ms_per_run", "ms"},
    {"irdep.summary_ms", "ms"},
    {"parexec.plan_ms", "ms"},
    {"parexec.invocations", "count"},
    {"parexec.chunks", "count"},
    {"parexec.iters_per_chunk", "iters"},
    {"parexec.serial_fallbacks", "count"},
    {"parexec.par_share", "ratio"},
    {"parexec.lane_busy_ratio", "ratio"},
    {"driver.compile_ms", "ms"},
    {"driver.unaccounted_ms", "ms"},
    {"service.rtt_ms_repeat_p50", "ms"},
    {"service.rtt_ms_edit_p50", "ms"},
    {"service.rtt_ms_cold_p50", "ms"},
    {"service.server_ms_p50", "ms"},
    {"service.wire_ms_p50", "ms"},
    {"service.response_hit_ratio", "ratio"},
    {"service.unit_hit_ratio", "ratio"},
    {"service.evictions_per_req", "count"},
    {"service.queue_depth_peak", "count"},
    {"trace.overhead_pct", "%"},
};

// Replay span name -> per-layer metric (mean self time per compile).
constexpr std::pair<const char*, const char*> kSpanLayers[] = {
    {layer::kImport, "hli.import_ms"},
    {layer::kView, "hli.view_build_ms"},
    {layer::kMaintain, "hli.maintain_ms"},
    {layer::kMap, "backend.map_ms"},
    {layer::kCse, "backend.cse_ms"},
    {layer::kConstfold, "backend.constfold_ms"},
    {layer::kDce, "backend.dce_ms"},
    {layer::kLicm, "backend.licm_ms"},
    {layer::kSched, "backend.sched_ms"},
    {layer::kUnroll, "backend.unroll_ms"},
    {layer::kRegalloc, "backend.regalloc_ms"},
    {layer::kSched2, "backend.sched2_ms"},
    {layer::kIrdep, "irdep.summary_ms"},
    {layer::kPlan, "parexec.plan_ms"},
};

}  // namespace

void LayerMetrics::add_compile(const CompileTrace& trace, Report& report) {
  if (trace.by_program.empty()) return;
  using Sample = CompileTrace::Sample;
  const auto self = [](const Sample& s, const char* span) {
    const auto it = s.self_ms.find(span);
    return it == s.self_ms.end() ? 0.0 : it->second;
  };
  const auto layer_sum = [&self](const Sample& s) {
    double sum = self(s, layer::kFrontend);
    for (const auto& [span, metric] : kSpanLayers) sum += self(s, span);
    return sum;
  };
  // Each program's median per figure, then the mean over programs, so
  // every program weighs the same, as in a round.  A difference is the
  // median of the per-triple differences, which cancels host drift that
  // spans a triple.  It still compares two executions, so a difference
  // smaller than their noise can read below zero; that is a figure under
  // the pairing's resolution, noted, not a wrong output.
  std::map<std::string, double> sum;
  for (const auto& [index, samples] : trace.by_program) {
    const auto med = [&samples](const std::function<double(const Sample&)>& get) {
      std::vector<double> values;
      for (const Sample& s : samples) values.push_back(get(s));
      return median(std::move(values));
    };
    const double probe = med([](const Sample& s) { return s.probe_ms; });
    const double direct = med([](const Sample& s) { return s.direct_ms; });
    sum["frontend.analyze_ms"] += probe;
    sum["hli.generate_ms"] +=
        med([&](const Sample& s) { return self(s, layer::kFrontend) - s.probe_ms; });
    for (const auto& [span, metric] : kSpanLayers) {
      sum[metric] += med([&, span = span](const Sample& s) { return self(s, span); });
    }
    sum["driver.compile_ms"] += direct;
    sum["driver.unaccounted_ms"] +=
        med([&](const Sample& s) { return s.direct_ms - layer_sum(s); });
  }
  const double programs = static_cast<double>(trace.by_program.size());
  for (const auto& [name, total] : sum) {
    set(name, total / programs);
    if (total < 0) {
      report.note(name + " reads " + format_number(total / programs) +
                  " ms: below what the paired samples resolve");
    }
  }
}

void LayerMetrics::add_interp(const InterpTrace& trace) {
  if (trace.runs == 0) return;
  const double runs = static_cast<double>(trace.runs);
  const hli::backend::ParexecStats& par = trace.parexec;
  set("interp.minsns_per_s", trace.insns / (trace.run_ms / 1e3) / 1e6);
  set("interp.minflt_per_run", trace.minflt / runs);
  set("interp.sys_ms_per_run", trace.sys_ms / runs);
  set("parexec.invocations", static_cast<double>(par.invocations) / runs);
  set("parexec.chunks", static_cast<double>(par.chunks) / runs);
  set("parexec.iters_per_chunk",
      par.chunks == 0 ? 0.0
                      : static_cast<double>(par.par_iterations) /
                            static_cast<double>(par.chunks));
  set("parexec.serial_fallbacks", static_cast<double>(par.serial_fallbacks) / runs);
  set("parexec.par_share",
      trace.insns == 0 ? 0.0 : static_cast<double>(par.par_insns) / trace.insns);
  set("parexec.lane_busy_ratio", trace.cpu_ms / (trace.run_ms * trace.lanes));
}

void LayerMetrics::add_counters(const PipelineOptions& base) {
  hli::telemetry::CounterSet total;
  double bytes = 0;
  double lines = 0;
  for (const Program& program : suite()) {
    const CompiledProgram compiled = hli::driver::compile_source(
        program.source, options_for(program, base).with_counters());
    total += compiled.counters.total;
    bytes += static_cast<double>(compiled.stats.hli_bytes);
    lines += static_cast<double>(compiled.stats.source_lines);
  }
  for (const char* name : {"sched.mem_queries", "sched.ddg_edges_pruned",
                           "query.batch_pairs", "query.batch_fallbacks",
                           "regalloc.spilled"}) {
    set(name, static_cast<double>(total.value(name)));
  }
  set("hli.views_built", static_cast<double>(total.value("query.views_built")));
  set("hli.bytes_per_line", bytes / lines);
}

void LayerMetrics::report(Report& report) const {
  for (const LayerSpec& spec : kLayers) {
    const auto it = values_.find(spec.name);
    report.add(spec.name, it == values_.end() ? 0.0 : it->second, spec.unit);
  }
}

void check_replay_fidelity(Report& report, const CompileTrace& trace,
                           const PipelineOptions& traced) {
  std::vector<std::pair<std::string, PipelineOptions>> configs = {
      {"paper_table2", PipelineOptions::paper_table2()},
      {"production", PipelineOptions::production()}};
  if (traced.exec_threads > 1) configs.emplace_back("traced", traced);
  std::size_t checked = 0;
  for (const auto& [label, options] : configs) {
    for (const Program& program : suite()) {
      const std::string mismatch = fidelity_mismatch(program, options);
      if (!mismatch.empty()) {
        report.fail("replay fidelity: " + program.name + " under " + label +
                    ": " + mismatch);
      }
      ++checked;
    }
  }
  report.note("replay fidelity: " + std::to_string(checked) +
              " program/preset pairs checked against compile_source");

  // For information: the replay's per-layer totals beside compile_source's
  // own telemetry span totals (inclusive), both per compiled program.
  if (trace.ops == 0) return;
  std::map<std::string, double> own;
  for (const Program& program : suite()) {
    for (const auto& [name, ms] : program_span_totals(program, traced)) {
      own[name] += ms / static_cast<double>(suite().size());
    }
  }
  std::string line = "replayed self ms per compile:";
  char buf[96];
  for (const auto& [name, ms] : trace.spans.self_ms()) {
    std::snprintf(buf, sizeof buf, " %s=%.4f", name.c_str(),
                  ms / static_cast<double>(trace.ops));
    line += buf;
  }
  report.note(line);
  line = "compile_source span ms per compile:";
  for (const auto& [name, ms] : own) {
    std::snprintf(buf, sizeof buf, " %s=%.4f", name.c_str(), ms);
    line += buf;
  }
  report.note(line);
}

}  // namespace hlibench
