// Shared command-line vocabulary for the hli tools (hlic, hlifuzz).
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
//
// A tool's argument loop calls `parse_common_flag` first and falls
// through to its own flags only on NotMine, so the shared flags cannot
// drift apart between tools.
#pragma once

#include <string>
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

/// The shared flags, parsed but not yet applied.  The *_set bools
/// let a tool distinguish "flag absent" from "flag at its default" —
/// hlifuzz only overrides its matrix when the user actually asked.
struct CommonOptions {
  driver::VerifyMode verify_hli = driver::VerifyMode::Off;
  bool verify_hli_set = false;
  driver::HliEncoding emit = driver::HliEncoding::Text;
  bool emit_set = false;
  unsigned jobs = 0;  ///< 0: driver default (all cores).
  std::string trace_out;
  StatsFormat stats = StatsFormat::Off;
  /// --audit-deps: independent RTL-level re-derivation of dependences at
  /// every pass boundary, flagging HLI independence claims it refutes.
  driver::VerifyMode audit_deps = driver::VerifyMode::Off;
  bool audit_deps_set = false;
  /// --analyze=loops: classify every loop DOALL/DOACROSS(d)/Serial.
  bool analyze_loops = false;
  bool analyze_loops_set = false;
  /// --irdep-fallback: AND the independent analyzer's answers into every
  /// CSE/LICM/scheduler dependence test.
  bool irdep_fallback = false;
  bool irdep_fallback_set = false;
  /// --exec-threads=N: run planned DOALL/DOACROSS loops on N execution
  /// lanes (1 = serial; results are byte-identical at any value).
  unsigned exec_threads = 1;
  bool exec_threads_set = false;
  /// --frontend=c|basic: which front-end compiles the inputs.  When the
  /// flag is absent, resolve_frontend infers it from the inputs (file
  /// extension or workload registry); a whole batch compiles with ONE
  /// front-end.
  frontend::Language frontend = frontend::Language::C;
  bool frontend_set = false;
  /// --open-world-params: open-world linkage for C pointer parameters
  /// (frontend::FrontendOptions::open_world_params).  C-only; the
  /// pipeline rejects it with --frontend=basic.
  bool open_world = false;
  bool open_world_set = false;

  /// True when --stats or --trace-out asked for telemetry collection.
  [[nodiscard]] bool wants_telemetry() const {
    return stats != StatsFormat::Off || !trace_out.empty();
  }
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

/// The usage lines for the shared flags (embed in each tool's usage()).
[[nodiscard]] const char* common_usage();

/// Settles which front-end compiles `inputs` (each a source path or a
/// built-in workload name).  Without --frontend the language is inferred
/// per input — `.bas` / BASIC workloads select the BASIC front-end, `.c`
/// / mini-C workloads the C one — and the batch must agree; with the
/// flag, any input whose detected language contradicts it is an error.
/// On success `common.frontend` holds the batch's language (and
/// `frontend_set` is true so apply() threads it into the pipeline).
/// False = mixed or contradictory batch; the actionable message is
/// already on stderr.
[[nodiscard]] bool resolve_frontend(CommonOptions& common,
                                    const std::vector<std::string>& inputs,
                                    const char* tool);

/// Applies verify/emit/telemetry onto a PipelineOptions through its
/// fluent layer.  `tracer` (may be null) is the tool-owned Tracer
/// --trace-out events go to; counters turn on when --stats asked.
[[nodiscard]] driver::PipelineOptions apply(
    const CommonOptions& common, const driver::PipelineOptions& base,
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
