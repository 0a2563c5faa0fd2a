// Machinery the four workloads share: run configuration, the report they
// fill, the end-to-end metric set, and the per-layer measurements the
// traced runs take around public calls.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "backend/interp.hpp"
#include "driver/pipeline.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "suite.hpp"

namespace hlibench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Fewer set-up repetitions and a shorter warm-up, for smoke tests.
  bool short_mode = false;
  std::map<std::string, Expected> oracle;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_out;
  /// Directory for the service socket.
  std::string work_dir = ".";
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Printed before the result line.

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// A failed check: the run's outputs are not correct.
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

/// The timed window of an untraced run, as a sequence of rounds.  Every
/// round holds the same ops in a fresh order, so rounds are comparable;
/// the end-to-end figures are means over the quarter of rounds the host
/// slowed least, which slow periods covering up to three quarters of the
/// rounds do not move.
struct Window {
  struct Round {
    double wall_s = 0;
    double cpu_ms = 0;
    std::vector<double> latency_ms;  ///< One per successful op.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Round> rounds;
  double wall_s = 0;
  double peak_rss_mb = 0;  ///< At the window's close, before any check.

  /// One op of round `round` (default: the latest round).
  void record(double ms, bool ok, std::size_t round = SIZE_MAX) {
    Round& r = rounds.at(round == SIZE_MAX ? rounds.size() - 1 : round);
    ++r.attempted;
    if (ok) {
      r.latency_ms.push_back(ms);
    } else {
      ++r.failed;
    }
  }
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
};

/// body(0..count-1) on up to four threads; rethrows the first exception
/// after every thread has joined.  For the checks after a timed window.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

/// Appends the wall time, in seconds, of each of `reps` calls to `setup`
/// to `samples`.  Workloads time their set-up both before and after the
/// timed window, so setup_s sees the host at both ends of the run.
void time_setups(int reps, const std::function<void()>& setup,
                 std::vector<double>& samples);

/// Closed loop over whole rounds: each round calls op(slot, round) for
/// every slot of deal(), round after round, until at least `min_rounds`
/// rounds ran and `seconds` passed.  Whole rounds weight every slot kind
/// equally in every run.  With a window, opens it, times each round's
/// wall and CPU time into it, and closes it.
void run_rounds(double seconds, std::uint64_t min_rounds,
                const std::function<std::vector<std::size_t>()>& deal,
                const std::function<void(std::size_t, std::uint64_t)>& op,
                Window* window = nullptr);

/// Quality of the code a workload generated, over the whole suite: the
/// dynamic instruction count and the modelled R10000 cycles of each
/// program, each run checked against the oracle.
struct GenQuality {
  double dyn_insns = 0;
  double r10k_cycles = 0;
};
[[nodiscard]] GenQuality generated_quality(
    const std::vector<hli::driver::CompiledProgram>& compiled,
    const std::map<std::string, Expected>& oracle, Report& report);

/// Adds every end-to-end metric (and notes failed_ratio and the tail
/// percentile with its sample count).  Each figure is the lowest quarter
/// mean of its samples: setup_s of `setup_samples`; the latency
/// percentiles and cpu_ms_per_op of the per-round figures; ops_per_s is
/// the reciprocal of that of the per-round seconds per op.
void report_end_to_end(Report& report, const Window& window,
                       const std::vector<double>& setup_samples,
                       const GenQuality& gen);

// -- Per-layer measurement (traced runs) ------------------------------------

/// Paired op times of one key (a program, or a request kind and program):
/// the same op untraced and traced, in alternating order.
struct OpTimes {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
};

/// Tracing cost in percent: per key, the median traced over the median
/// untraced op time, weighted by the key's sample count.
[[nodiscard]] double overhead_pct(const std::map<std::uint64_t, OpTimes>& times);

/// Traced compiles.  Each is a triple on one source -- the replay with
/// spans, a direct compile_source and a front-end-only analyze_unit probe
/// -- so every derived layer time subtracts paired samples.
struct CompileTrace {
  struct Sample {
    double replay_ms = 0;  ///< The replayed compile, spans included.
    double direct_ms = 0;  ///< compile_source.
    double probe_ms = 0;   ///< analyze_unit(want_hli=false).
    std::map<std::string, double> self_ms;  ///< The replay's layer self times.
  };
  SpanLog spans;
  std::map<std::size_t, std::vector<Sample>> by_program;
  std::uint64_t ops = 0;
};

/// One traced triple (op id `op`) of `program`'s source under `options`,
/// in an order that cycles with `op`.  Returns the replay's program.
hli::driver::CompiledProgram traced_compile(
    CompileTrace& trace, std::size_t index, const Program& program,
    const hli::driver::PipelineOptions& options, std::uint64_t op);

/// Interpreter runs with resource readings around each.
struct InterpTrace {
  unsigned lanes = 1;
  std::uint64_t runs = 0;
  double run_ms = 0;
  double cpu_ms = 0;
  double sys_ms = 0;
  double minflt = 0;
  double insns = 0;
  hli::backend::ParexecStats parexec;
};

/// One traced run: the span and the resource readings lie inside the
/// timed interval, whose length goes to `*op_ms` when given.
hli::backend::RunResult traced_run(InterpTrace& trace, SpanLog* spans,
                                   const hli::backend::RtlProgram& rtl,
                                   unsigned lanes, double* op_ms = nullptr);

/// Every per-layer metric, in BENCHMARK.json order; a layer the workload
/// never invoked reports 0.
class LayerMetrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Layer times per compile: the mean over programs of each program's
  /// median.  A derived layer time below zero is noted in `report`.
  void add_compile(const CompileTrace& trace, Report& report);
  void add_interp(const InterpTrace& trace);
  /// Deterministic counters of one compile of the suite under `base`.
  void add_counters(const hli::driver::PipelineOptions& base);
  void report(Report& report) const;

 private:
  std::map<std::string, double> values_;
};

/// Checks replay_compile against compile_source for every program under
/// both presets, and under `traced` too when it plans parallel loops;
/// also notes the replayed per-layer totals beside compile_source's own
/// span totals under `traced`.
void check_replay_fidelity(Report& report, const CompileTrace& trace,
                           const hli::driver::PipelineOptions& traced);

Report run_compile(const RunConfig& config);
Report run_execute_par(const RunConfig& config);
Report run_serve(const RunConfig& config);

}  // namespace hlibench
