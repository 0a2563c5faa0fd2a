// Replay of driver::compile_source's sequence through the layers' public
// entry points, with one span per call, so the traced runs can split a
// compile into per-layer self times from outside the libraries.
//
// This is the only file that calls the passes directly: a change to a
// pass signature edits one call site here.  The replay must stay
// byte-identical to compile_source (render_rtl and every HLI byte); the
// traced runs check that on every program under both presets and fail
// otherwise.
#pragma once

#include <string_view>

#include "driver/pipeline.hpp"
#include "spans.hpp"

namespace hlibench {

/// Span names the replay records, one per layer call.  "compile" is the
/// root of each op; the others nest under it.
namespace layer {
inline constexpr const char* kCompile = "compile";
inline constexpr const char* kFrontend = "frontend";  ///< analyze_unit
inline constexpr const char* kImport = "hli.import";   ///< HliStore + get()
inline constexpr const char* kIrdep = "irdep.summary";
inline constexpr const char* kMap = "backend.map";
inline constexpr const char* kView = "hli.view_build";
inline constexpr const char* kMaintain = "hli.maintain";
inline constexpr const char* kCse = "backend.cse";
inline constexpr const char* kConstfold = "backend.constfold";
inline constexpr const char* kDce = "backend.dce";
inline constexpr const char* kLicm = "backend.licm";
inline constexpr const char* kUnroll = "backend.unroll";
inline constexpr const char* kSched = "backend.sched";
inline constexpr const char* kRegalloc = "backend.regalloc";
inline constexpr const char* kSched2 = "backend.sched2";
inline constexpr const char* kPlan = "parexec.plan";
}  // namespace layer

/// compile_source(source, options), one public call at a time.  Supports
/// the configurations the benchmark compiles: the presets, with or
/// without exec_threads > 1.  Throws std::invalid_argument for options
/// it does not replay (verification, audits, the irdep fallback, loop
/// analysis, an external store, a unit cache, telemetry), and
/// support::CompileError exactly where compile_source would.
[[nodiscard]] hli::driver::CompiledProgram replay_compile(
    std::string_view source, const hli::driver::PipelineOptions& options,
    SpanLog* spans);

}  // namespace hlibench
