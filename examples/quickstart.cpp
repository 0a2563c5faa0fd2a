// Quickstart: the whole HLI pipeline on a small program.
//
//   1. compile mini-C to an AST (the "parallelizing front-end"),
//   2. build + export the High-Level Information file,
//   3. import it into the back-end, map items onto RTL memory references,
//   4. answer dependence queries through the HLI interface,
//   5. schedule with and without HLI and compare machine cycles.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "driver/pipeline.hpp"
#include "hli/serialize.hpp"

using namespace hli;

constexpr const char* kSource = R"(
double a[1024];
double b[1024];
double s;
void emitd(double v);
int main() {
  for (int r = 0; r < 100; r++) {
    for (int i = 1; i < 1024; i++) {
      a[i] = b[i] * 0.5 + b[i-1] * 0.25;
      s = s + a[i];
    }
  }
  emitd(s);
  return 0;
}
)";

int main() {
  // -- Front end + HLI generation + back end, natively and HLI-assisted. --
  const driver::PipelineOptions assisted = driver::PipelineOptions::paper_table2();
  driver::PipelineOptions native = assisted;
  native.use_hli = false;  // Figure 5's flag_use_hli.

  const driver::CompiledProgram plain = driver::compile_source(kSource, native);
  const driver::CompiledProgram smart = driver::compile_source(kSource, assisted);

  std::printf("== The exported HLI file (%zu bytes) ==\n%s\n",
              smart.hli_text.size(), smart.hli_text.c_str());

  // -- What the scheduler saw (Figure 5's counters). --
  const auto& s = smart.stats.sched;
  std::printf("== First scheduling pass ==\n");
  std::printf("memory dependence queries: %llu\n",
              static_cast<unsigned long long>(s.mem_queries));
  std::printf("GCC-style analyzer said yes: %llu\n",
              static_cast<unsigned long long>(s.gcc_yes));
  std::printf("HLI said yes:                %llu\n",
              static_cast<unsigned long long>(s.hli_yes));
  std::printf("combined (edges inserted):   %llu\n\n",
              static_cast<unsigned long long>(s.combined_yes));

  // -- Correctness: both compilations behave identically. --
  const backend::RunResult run_plain = driver::execute(plain);
  const backend::RunResult run_smart = driver::execute(smart);
  std::printf("== Execution ==\n");
  std::printf("outputs identical: %s\n",
              run_plain.output_hash == run_smart.output_hash ? "yes" : "NO!");

  // -- Performance on the two machine models. --
  for (const auto& machine : {machine::r4600(), machine::r10000()}) {
    const auto base = driver::simulate(plain, machine);
    const auto hli_run = driver::simulate(smart, machine);
    std::printf("%-7s: %9llu -> %9llu cycles  (speedup %.3f)\n",
                machine.name.c_str(),
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(hli_run.cycles),
                static_cast<double>(base.cycles) /
                    static_cast<double>(hli_run.cycles));
  }
  return 0;
}
