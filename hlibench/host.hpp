// Host and build record printed with every result, and the refusal to
// report numbers from builds whose timings mean nothing.
#pragma once

#include <cstdint>
#include <string>

namespace hlibench {

/// Empty when this build may report numbers; otherwise why it may not
/// (a Debug build, or one instrumented by a sanitizer).
[[nodiscard]] std::string build_refusal();

/// One-line JSON: nproc, CPU model, compiler, CMAKE_BUILD_TYPE, sanitizer
/// flags, source revision, workload, seed and trace mode.
[[nodiscard]] std::string host_record(const std::string& revision,
                                      const std::string& workload,
                                      std::uint64_t seed, bool trace);

}  // namespace hlibench
