// What every workload shares: the 17-program suite, seeded program
// order, the correctness oracle, the replay fidelity check and process
// resource readings.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "backend/interp.hpp"
#include "driver/pipeline.hpp"

namespace hlibench {

struct Program {
  std::string name;
  std::string source;
  hli::frontend::Language language = hli::frontend::Language::C;
};

/// The 14 C programs then the 3 BASIC programs, in registry order.
[[nodiscard]] const std::vector<Program>& suite();

/// `base` with the program's front-end selected.
[[nodiscard]] hli::driver::PipelineOptions options_for(
    const Program& program, const hli::driver::PipelineOptions& base);

/// A fresh seeded permutation of 0..n-1: one round over the suite.
[[nodiscard]] std::vector<std::size_t> shuffled_round(std::mt19937_64& rng,
                                                      std::size_t n);

/// Observable result of running a program: the reference the benchmark
/// checks every execution against.
struct Expected {
  std::uint64_t output_hash = 0;
  std::int64_t return_value = 0;
  std::uint64_t emit_count = 0;
};

/// Reads the oracle file (`name output_hash return_value emit_count` per
/// line, '#' comments).  Throws std::runtime_error when it is unreadable,
/// malformed, or misses a suite program.
[[nodiscard]] std::map<std::string, Expected> load_oracle(const std::string& path);

[[nodiscard]] bool matches(const hli::backend::RunResult& run,
                           const Expected& expected);

/// Cheap digest of a compile's output (every instruction's opcode and
/// operands, parexec plans, and the exported HLI bytes), to check each
/// timed compile against the set-up compile of the same program.
[[nodiscard]] std::uint64_t compile_digest(
    const hli::driver::CompiledProgram& compiled);

/// Digest of everything the service returns for one program: the RTL dump
/// and the statistics text.
[[nodiscard]] std::uint64_t reply_digest(const std::string& rtl,
                                         const std::string& stats);
[[nodiscard]] std::uint64_t direct_digest(
    const hli::driver::CompiledProgram& compiled);

/// Empty when replay_compile(program) is byte-identical to compile_source
/// under `options` (RTL dump, exported HLI bytes, every maintained HLI
/// entry, parexec plans); otherwise what differs.
[[nodiscard]] std::string fidelity_mismatch(
    const Program& program, const hli::driver::PipelineOptions& options);

/// Inclusive per-span-name totals (ms) of compile_source's own telemetry
/// spans (what `hlic --trace-out` writes), function spans excluded.
[[nodiscard]] std::map<std::string, double> program_span_totals(
    const Program& program, const hli::driver::PipelineOptions& options);

/// Process resource usage (getrusage RUSAGE_SELF).
struct Usage {
  double user_ms = 0;
  double sys_ms = 0;
  double minflt = 0;
};
[[nodiscard]] Usage usage_self();
/// Peak resident set size of the process so far, MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace hlibench
