// Differential executor: one generated program, every pipeline
// configuration, one verdict.  The unoptimized no-HLI compile is the
// semantic oracle; every other leg of the matrix — per-pass toggles,
// all-passes, HLI on/off, text vs binary encoding, demand-driven
// HliStore import, serial vs compile_many — must reproduce its
// observable behavior exactly (emit stream hash, emit count, return
// value, trap behavior) while passing `--verify-hli=fatal` invariant
// checks at every pass boundary.
//
// The planted-defect hook mutates compiled RTL post-compile (dropping a
// store / negating a branch) to prove the harness actually detects and
// reduces miscompiles; it simulates a buggy pass without shipping one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"

namespace hli::testing {

/// How the HLI reaches the back-end in a configuration.
enum class Channel : std::uint8_t {
  Direct,       ///< compile_source generates + re-reads the HLI itself.
  StoreText,    ///< Pre-built text container behind an external HliStore.
  StoreBinary,  ///< Pre-built HLIB container behind an external HliStore.
};

/// Deliberate post-compile RTL corruption for harness self-tests.
enum class PlantedDefect : std::uint8_t {
  None,
  DropStore,     ///< Deletes main's last Store insn (a lost side effect).
  NegateBranch,  ///< Flips main's first conditional branch sense.
};

[[nodiscard]] const char* planted_defect_name(PlantedDefect defect);
/// Parses "none" / "drop-store" / "negate-branch".
[[nodiscard]] bool parse_planted_defect(const std::string& text,
                                        PlantedDefect& out);

struct DiffConfig {
  std::string name;
  driver::PipelineOptions options;
  Channel channel = Channel::Direct;
  /// Also compile via driver::compile_many (2 copies, 2 jobs) and require
  /// the RTL dump of every copy to be byte-identical to the serial one.
  bool parallel_leg = false;
  /// Also recompile with `batch_queries` flipped and require the RTL dump
  /// to be byte-identical — the BlockConflictMatrix bit-identity contract
  /// (docs/query-batching.md) checked on every fuzzed program.
  bool batch_flip_leg = false;
  /// Re-run the compiled program under a dynamic loop-dependence oracle
  /// and require every observed loop-carried dependence to be consistent
  /// with the DOALL/DOACROSS claims in CompiledProgram::loop_reports
  /// (skipped when a defect is planted — corrupted RTL voids the claims).
  bool analyze_leg = false;
  /// Re-run the compiled program on 4 execution lanes (force_dispatch so
  /// even tiny generated loops dispatch) and require the FULL RunResult —
  /// trap behavior, return value, output hash, emit count, AND
  /// dynamic_insns — to match the serial run: the parallel runtime's
  /// determinism contract.  Skipped when a defect is planted — corrupting
  /// RTL post-compile invalidates the plans' instruction indices.
  bool exec_threads_leg = false;
  /// Also compile through an in-process hlid server over a real socket,
  /// twice — cold (populates the service caches) and warm (served from
  /// them) — and require both replies' RTL dump and canonical stats text
  /// to be byte-identical to the in-process compile.  This fuzzes the
  /// wire codec and both cache tiers against the direct pipeline on
  /// every generated program.
  bool service_leg = false;
};

/// What one configuration observably did.
struct RunObservation {
  bool compile_ok = false;
  bool run_ok = false;
  std::string error;  ///< Compile or trap diagnostic, empty when clean.
  std::int64_t return_value = 0;
  std::uint64_t output_hash = 0;
  std::uint64_t emit_count = 0;
  std::uint64_t dynamic_insns = 0;
};

struct Divergence {
  std::string config;  ///< Matrix entry that disagreed with the baseline.
  std::string detail;  ///< Which fields differed, baseline vs actual.
};

struct DiffResult {
  /// True when the baseline itself failed to compile: the input is
  /// invalid (a generator bug, or a reducer candidate that cut too much),
  /// not a miscompile.
  bool invalid_input = false;
  std::string invalid_reason;
  RunObservation baseline;
  std::vector<Divergence> divergences;

  [[nodiscard]] bool diverged() const { return !divergences.empty(); }
};

/// The oracle configuration: no HLI, every optimization off.
[[nodiscard]] DiffConfig baseline_config();

/// The full matrix checked against the oracle: native passes without HLI,
/// each pass toggled individually under HLI, all passes on, regalloc +
/// second scheduling pass, binary encoding, both HliStore channels,
/// an alternate scheduling machine model, the parallel-driver leg, and
/// two threaded-execution legs (HLI-unioned and irdep-only plans).
/// Every HLI configuration runs with VerifyMode::Fatal.
[[nodiscard]] std::vector<DiffConfig> default_matrix();

/// Compiles and runs `source` under the baseline plus every matrix entry,
/// comparing observations.  `defect` (when not None) corrupts each
/// non-baseline RTL program post-compile — every matrix entry should then
/// diverge, which is the harness's own detection self-test.  `max_insns`
/// caps each interpreter run; a baseline trip marks the input invalid
/// (the generator's termination discipline guarantees small programs, so
/// a runaway is a harness bug — or a reducer candidate that deleted a
/// loop-counter update and must be rejected cheaply).  `language` selects
/// the front-end compiling `source` for the baseline AND every matrix
/// entry — the whole differential harness (store channels, service leg,
/// parallel legs included) runs unchanged over a BASIC program.
[[nodiscard]] DiffResult run_differential(
    const std::string& source, const std::vector<DiffConfig>& matrix,
    PlantedDefect defect = PlantedDefect::None,
    std::uint64_t max_insns = 50'000'000,
    frontend::Language language = frontend::Language::C);

/// Human-readable multi-line report ("config: field baseline=... got=...").
[[nodiscard]] std::string describe(const DiffResult& result);

}  // namespace hli::testing
