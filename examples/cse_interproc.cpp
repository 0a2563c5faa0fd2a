// Figure 4 demo: interprocedural REF/MOD information rescues CSE across
// calls.  The kernel keeps an expensive subexpression over repeated calls
// to a helper that touches unrelated state; natively GCC must assume the
// call clobbers all memory and recompute, with HLI the value survives.
#include <cstdio>

#include "driver/pipeline.hpp"

using namespace hli;

constexpr const char* kSource = R"(
double table[512];
double weights[512];
double out_a[512];
double out_b[512];
int counter;
void emit(int v);
void emitd(double v);

void log_progress() { counter = counter + 1; }

int main() {
  for (int r = 0; r < 200; r++) {
    for (int i = 0; i < 512; i++) {
      out_a[i] = table[i] * weights[i] + 1.0;
      log_progress();
      out_b[i] = table[i] * weights[i] * 2.0;
      log_progress();
      out_a[i] = out_a[i] + table[i] * weights[i];
    }
  }
  emit(counter);
  emitd(out_a[100] + out_b[200]);
  return 0;
}
)";

int main() {
  const driver::PipelineOptions assisted = driver::PipelineOptions::paper_table2();
  driver::PipelineOptions native = assisted;
  native.use_hli = false;  // Figure 5's flag_use_hli.

  const driver::CompiledProgram plain = driver::compile_source(kSource, native);
  const driver::CompiledProgram smart = driver::compile_source(kSource, assisted);

  std::printf("== CSE across calls (Figure 4) ==\n");
  std::printf("%-34s %10s %10s\n", "", "native", "with HLI");
  std::printf("%-34s %10llu %10llu\n", "loads/exprs reused",
              static_cast<unsigned long long>(plain.stats.cse.exprs_reused +
                                              plain.stats.cse.loads_reused),
              static_cast<unsigned long long>(smart.stats.cse.exprs_reused +
                                              smart.stats.cse.loads_reused));
  std::printf("%-34s %10llu %10llu\n", "entries purged at calls",
              static_cast<unsigned long long>(
                  plain.stats.cse.entries_purged_at_calls),
              static_cast<unsigned long long>(
                  smart.stats.cse.entries_purged_at_calls));
  std::printf("%-34s %10s %10llu\n", "entries KEPT at calls (REF/MOD)", "0",
              static_cast<unsigned long long>(
                  smart.stats.cse.entries_kept_at_calls));

  const backend::RunResult run_plain = driver::execute(plain);
  const backend::RunResult run_smart = driver::execute(smart);
  std::printf("\noutputs identical: %s\n",
              run_plain.output_hash == run_smart.output_hash ? "yes" : "NO!");

  const auto machine = machine::r4600();
  const auto base = driver::simulate(plain, machine);
  const auto fast = driver::simulate(smart, machine);
  std::printf("R4600 cycles: %llu -> %llu (speedup %.3f)\n",
              static_cast<unsigned long long>(base.cycles),
              static_cast<unsigned long long>(fast.cycles),
              static_cast<double>(base.cycles) /
                  static_cast<double>(fast.cycles));
  return 0;
}
