// Shared command-line vocabulary for the hli tools (hlic, hlid, hlifuzz).
//
// Every tool that drives the pipeline accepts the same shared flags with
// the same spellings and the same error messages:
//
//   --verify-hli[=fatal|warn]   invariant verifier at every pass boundary
//   --emit=binary|text          front-end -> back-end interchange encoding
//   --jobs[=]N                  fan work out on N threads (0 = all cores)
//   --trace-out=PATH            write a Chrome trace_event JSON file
//   --stats[=table|json]       telemetry counter report (table to stdout,
//                               json as one deterministic document)
//   --audit-deps[=fatal|warn]   independent-analyzer soundness audit of
//                               HLI independence claims at pass boundaries
//   --analyze=loops             DOALL/DOACROSS/Serial loop classification
//   --irdep-fallback            independent analyzer as a dependence
//                               oracle for CSE/LICM/scheduling
//   --frontend=c|basic          source language / front-end selection
//                               (auto-detected from .c/.bas extensions
//                               and workload names when absent)
//   --open-world-params         open-world linkage for C pointer params
//   --exec-threads[=]N          run planned parallel loops on N lanes
//
// A tool's argument loop calls `parse_common_flag` first and falls
// through to its own flags only on NotMine, so the shared flags cannot
// drift apart between tools.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/parallel.hpp"
#include "driver/pipeline.hpp"
#include "frontend/contract.hpp"
#include "support/telemetry.hpp"

namespace hli::tools {

/// How --stats renders (Off when the flag is absent).
enum class StatsFormat : std::uint8_t {
  Off,
  Table,  ///< Aligned "name  value" lines per scope.
  Json,   ///< One JSON document, byte-identical for any --jobs value.
};

/// The shared flags, parsed but not yet applied.  An empty optional
/// means the flag was absent, so apply() (and hlifuzz's matrix) keeps the
/// preset's value.
struct CommonOptions {
  std::optional<driver::VerifyMode> verify_hli;
  std::optional<driver::HliEncoding> emit;
  unsigned jobs = 0;  ///< 0: driver default (all cores).
  std::string trace_out;
  StatsFormat stats = StatsFormat::Off;
  /// --audit-deps: independent RTL-level re-derivation of dependences at
  /// every pass boundary, flagging HLI independence claims it refutes.
  std::optional<driver::VerifyMode> audit_deps;
  /// --analyze=loops: classify every loop DOALL/DOACROSS(d)/Serial.
  std::optional<bool> analyze_loops;
  /// --irdep-fallback: AND the independent analyzer's answers into every
  /// CSE/LICM/scheduler dependence test.
  std::optional<bool> irdep_fallback;
  /// --exec-threads=N: run planned DOALL/DOACROSS loops on N execution
  /// lanes (1 = serial; results are byte-identical at any value).
  std::optional<unsigned> exec_threads;
  /// --frontend=c|basic: which front-end compiles the inputs.  When the
  /// flag is absent, resolve_frontend infers it from the inputs (file
  /// extension or workload registry); a whole batch compiles with ONE
  /// front-end.
  std::optional<frontend::Language> frontend;
  /// --open-world-params: open-world linkage for C pointer parameters
  /// (frontend::FrontendOptions::open_world_params).  C-only; the
  /// pipeline rejects it with --frontend=basic.
  std::optional<bool> open_world;
};

enum class ParseStatus : std::uint8_t {
  NotMine,  ///< argv[i] is not a shared flag; try the tool's own flags.
  Handled,  ///< Consumed (possibly argv[i+1] too; `i` was advanced).
  Error,    ///< Shared flag with a bad value; message already on stderr.
};

/// Tries to consume argv[i] as one of the shared flags.  `tool` prefixes
/// error messages ("hlic: ...").
[[nodiscard]] ParseStatus parse_common_flag(int argc, char** argv, int& i,
                                            const char* tool,
                                            CommonOptions& out);

/// Tries to consume argv[i] as one of the back-end flags hlic and hlid
/// accept (hlifuzz runs a fixed matrix instead), writing straight into
/// `pipeline`:
///
///   --no-hli       compile with the native oracle only (use_hli = false)
///   --unroll[=N]   loop unrolling at factor N (default 4, N >= 2)
[[nodiscard]] ParseStatus parse_pipeline_flag(std::string_view arg,
                                              const char* tool,
                                              driver::PipelineOptions& pipeline);

/// The checked decimal parse behind every numeric flag: digits only, no
/// sign, and a value in [min, max].  Anything else prints
/// "<tool>: <flag> expects an integer from <min> to <max>, got '<text>'"
/// to stderr and returns nullopt.
[[nodiscard]] std::optional<std::uint64_t> parse_number(std::string_view text,
                                                        const char* flag,
                                                        const char* tool,
                                                        std::uint64_t min,
                                                        std::uint64_t max);

/// HOST:PORT for `flag` (hlid --connect), the port checked
/// by parse_number from 1 to 65535.  False, with the message on stderr,
/// on anything else.
[[nodiscard]] bool parse_host_port(std::string_view value, const char* flag,
                                   const char* tool, std::string& host,
                                   int& port);

/// `--flag value` or `--flag=value`: stores the value in `out` (advancing
/// `i` past a separate value) and returns true when argv[i] is `name`.
[[nodiscard]] bool flag_value(int argc, char** argv, int& i, const char* name,
                              std::string& out);

/// The usage lines for the shared flags (embed in each tool's usage()).
[[nodiscard]] const char* common_usage();

/// Reads `input` — a built-in workload name or a source path — into
/// `source`.  False, with the message on stderr, when it is neither.
[[nodiscard]] bool load_source(const std::string& input, const char* tool,
                               std::string& source);

/// Settles which front-end compiles `inputs` (each a source path or a
/// built-in workload name).  Without --frontend the language is inferred
/// per input — `.bas` / BASIC workloads select the BASIC front-end, `.c`
/// / mini-C workloads the C one — and the batch must agree; with the
/// flag, any input whose detected language contradicts it is an error.
/// On success `common.frontend` holds the batch's language when any input
/// names one, so apply() threads it into the pipeline.
/// False = mixed or contradictory batch; the actionable message is
/// already on stderr.
[[nodiscard]] bool resolve_frontend(CommonOptions& common,
                                    const std::vector<std::string>& inputs,
                                    const char* tool);

/// Assigns every shared flag that was given onto a copy of `base`.
/// `tracer` (may be null) is the tool-owned Tracer --trace-out events go
/// to; counters turn on when --stats asked.
[[nodiscard]] driver::PipelineOptions apply(const CommonOptions& common,
                                            driver::PipelineOptions base,
                                            telemetry::Tracer* tracer);

/// `{"name":value,...}` with names sorted — the deterministic rendering
/// of one counter scope.
[[nodiscard]] std::string render_counters_json(
    const telemetry::CounterSet& counters);

/// Aligned "name  value" lines (name-sorted), `indent` leading spaces.
[[nodiscard]] std::string render_counters_table(
    const telemetry::CounterSet& counters, int indent = 0);

/// The full --stats=json document for a set of compiled inputs: one
/// object per input (program counters + per-function attribution, in
/// input/lowering order) plus the aggregated total.  Deterministic:
/// byte-identical however many jobs compiled the inputs.
[[nodiscard]] std::string render_stats_json(
    const std::vector<std::string>& names,
    const std::vector<driver::CompiledProgram>& programs);

/// Writes `tracer` to `common.trace_out` when set; false on I/O failure.
[[nodiscard]] bool write_trace(const CommonOptions& common,
                               const telemetry::Tracer& tracer,
                               const char* tool);

}  // namespace hli::tools
