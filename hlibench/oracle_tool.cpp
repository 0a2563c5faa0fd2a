// Writes the benchmark's correctness oracle to stdout: for every suite
// program, the output hash, return value and emit count of a
// frontend_only() build, which runs no back-end pass.  The result is
// checked in as oracle.txt; the benchmark only ever reads it.
//
//   hlibench_oracle > hlibench/oracle.txt
#include <cstdio>

#include "suite.hpp"

int main() {
  std::printf("# name output_hash return_value emit_count\n");
  std::printf("# frontend_only() builds, run serially by backend::run_program\n");
  for (const hlibench::Program& program : hlibench::suite()) {
    const hli::driver::CompiledProgram compiled = hli::driver::compile_source(
        program.source,
        hlibench::options_for(program, hli::driver::PipelineOptions::frontend_only()));
    const hli::backend::RunResult run = hli::driver::execute(compiled);
    if (!run.ok) {
      std::fprintf(stderr, "%s: %s\n", program.name.c_str(), run.error.c_str());
      return 1;
    }
    std::printf("%s %llu %lld %llu\n", program.name.c_str(),
                static_cast<unsigned long long>(run.output_hash),
                static_cast<long long>(run.return_value),
                static_cast<unsigned long long>(run.emit_count));
  }
  return 0;
}
