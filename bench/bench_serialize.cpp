// Serialization bench: the two text/byte surfaces the compiler writes.
//
// HLI: text "HLI v1" vs the HLIB binary container, on the largest single
// workload and on one combined container holding all 14 workloads (unit
// names prefixed "workload:unit" to keep them distinct).  Measured per
// format: write, full import, and — binary only — the lazy cost of
// opening the container and decoding a single unit, which is what a
// demand-driven `compile_source` pays.  The binary/text full-import
// ratio is the headline number; the lazy row shows why the per-unit
// index matters beyond raw decode speed.
//
// RTL: `service::render_rtl` of each suite program compiled under
// `production()` — the dump hlid returns with every compile reply — in
// rows "rtl:<program>", and of the whole suite in row "rtl:suite-17".
//
// Every time is ms per call, over kTrials windows, reported as
// `_median`/`_min`/`_max`.  `--json <path>` writes the machine-readable
// report.
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "driver/pipeline.hpp"
#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/serialize.hpp"
#include "hli/store.hpp"
#include "service/wire.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

volatile std::size_t g_sink = 0;  // Defeats dead-code elimination.

constexpr unsigned kTrials = 5;
constexpr double kWindowMs = 20.0;

/// Milliseconds per call of `op`, one figure per trial: each trial calls
/// `op` until a kWindowMs window has passed.
template <typename Op>
std::vector<double> trials_ms(const Op& op) {
  std::vector<double> samples;
  for (unsigned trial = 0; trial < kTrials; ++trial) {
    std::uint64_t calls = 0;
    std::size_t sink = 0;
    const benchutil::WallTimer timer;
    double elapsed;
    do {
      sink += op();
      ++calls;
    } while ((elapsed = timer.elapsed_ms()) < kWindowMs);
    g_sink = g_sink + sink;
    samples.push_back(elapsed / static_cast<double>(calls));
  }
  return samples;
}

/// Appends the spread of `samples` to `metrics`; returns their median.
double add_spread(std::vector<benchutil::Metric>& metrics,
                  const std::string& key, const std::vector<double>& samples) {
  for (benchutil::Metric& m : benchutil::spread(key, samples)) {
    metrics.push_back(std::move(m));
  }
  return benchutil::median(samples);
}

format::HliFile build_file(const char* source) {
  support::DiagnosticEngine diags;
  frontend::Program prog = frontend::compile_to_ast(source, diags);
  return builder::build_hli(prog);
}

struct Row {
  std::string name;
  std::vector<benchutil::Metric> metrics;
};

Row bench_one(const std::string& label, const format::HliFile& file) {
  const std::string text = serialize::write_hli(file);
  const std::string binary = serialize::write_hlib(file);
  const double size_ratio =
      binary.empty() ? 0.0
                     : static_cast<double>(text.size()) /
                           static_cast<double>(binary.size());
  Row row{label,
          {{"units", static_cast<double>(file.entries.size())},
           {"text_bytes", static_cast<double>(text.size())},
           {"binary_bytes", static_cast<double>(binary.size())},
           {"size_ratio", size_ratio}}};
  std::vector<benchutil::Metric>& m = row.metrics;

  const double text_write_ms = add_spread(m, "text_write_ms", trials_ms([&] {
    return serialize::write_hli(file).size();
  }));
  const double binary_write_ms =
      add_spread(m, "binary_write_ms", trials_ms([&] {
        return serialize::write_hlib(file).size();
      }));
  const double text_read_ms = add_spread(m, "text_read_ms", trials_ms([&] {
    return serialize::read_hli(text).entries.size();
  }));
  const double binary_read_ms = add_spread(m, "binary_read_ms", trials_ms([&] {
    return serialize::read_hlib(binary).entries.size();
  }));
  // Demand-driven cost: open the container (meta block only) and decode
  // exactly one unit — independent of how many units the file holds.
  const std::string first_unit = file.entries.front().unit_name;
  const double lazy_open_ms =
      add_spread(m, "binary_lazy_open_ms", trials_ms([&] {
        const HliStore store{std::string(binary)};
        const format::HliEntry* entry = store.get(first_unit);
        return entry != nullptr ? entry->regions.size() : 0;
      }));
  const double read_speedup =
      binary_read_ms > 0.0 ? text_read_ms / binary_read_ms : 0.0;
  m.push_back({"read_speedup", read_speedup});

  std::printf("%-18s %5zu units %8zu B text %8zu B bin (%.2fx smaller)\n",
              label.c_str(), file.entries.size(), text.size(), binary.size(),
              size_ratio);
  std::printf("  %-24s %10.4f ms text %10.4f ms bin\n", "write",
              text_write_ms, binary_write_ms);
  std::printf("  %-24s %10.4f ms text %10.4f ms bin (%.2fx faster)\n",
              "full import", text_read_ms, binary_read_ms, read_speedup);
  std::printf("  %-24s %10.4f ms\n", "lazy open + 1 unit", lazy_open_ms);
  return row;
}

/// The RTL dump of `programs`: bytes, instructions and render time.
Row bench_render(const std::string& label,
                 std::span<const driver::CompiledProgram> programs) {
  std::size_t bytes = 0;
  std::size_t insns = 0;
  for (const driver::CompiledProgram& compiled : programs) {
    bytes += service::render_rtl(compiled).size();
    for (const backend::RtlFunction& func : compiled.rtl.functions) {
      insns += func.insns.size();
    }
  }
  Row row{label,
          {{"rtl_bytes", static_cast<double>(bytes)},
           {"rtl_insns", static_cast<double>(insns)}}};
  const double render_ms =
      add_spread(row.metrics, "rtl_render_ms", trials_ms([&] {
        std::size_t size = 0;
        for (const driver::CompiledProgram& compiled : programs) {
          size += service::render_rtl(compiled).size();
        }
        return size;
      }));
  std::printf("%-18s %8zu B rtl %6zu insns  render %8.4f ms (%.1f ns/insn)\n",
              label.c_str(), bytes, insns, render_ms,
              insns != 0 ? render_ms * 1e6 / static_cast<double>(insns) : 0.0);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;

  // Largest workload by serialized text size, plus one combined container
  // with every workload's units (names prefixed to stay unique).
  std::string largest_name;
  format::HliFile largest;
  std::size_t largest_bytes = 0;
  format::HliFile combined;
  for (const auto& workload : workloads::all_workloads()) {
    format::HliFile file = build_file(workload.source);
    const std::size_t bytes = serialize::write_hli(file).size();
    for (const format::HliEntry& entry : file.entries) {
      combined.entries.push_back(entry);
      combined.entries.back().unit_name =
          workload.name + ":" + entry.unit_name;
    }
    if (bytes > largest_bytes) {
      largest_bytes = bytes;
      largest_name = workload.name;
      largest = std::move(file);
    }
  }

  benchutil::JsonReport report;
  report.bench = "serialize";
  report.trials = kTrials;
  Row row = bench_one(largest_name, largest);
  const double largest_speedup = row.metrics.back().value;
  report.add(row.name, std::move(row.metrics));
  row = bench_one("combined-14", combined);
  report.add(row.name, std::move(row.metrics));

  // The RTL dump hlid renders: every suite program under production().
  std::vector<driver::CompiledProgram> suite;
  const auto bench_program = [&](const workloads::Workload& workload) {
    driver::PipelineOptions options = driver::PipelineOptions::production();
    options.frontend_options.language = workload.language;
    suite.push_back(driver::compile_source(workload.source, options));
    row = bench_render("rtl:" + workload.name, {&suite.back(), 1});
    report.add(row.name, std::move(row.metrics));
  };
  for (const auto& workload : workloads::all_workloads()) {
    bench_program(workload);
  }
  for (const auto& workload : workloads::basic_workloads()) {
    bench_program(workload);
  }
  row = bench_render("rtl:suite-17", suite);
  report.add(row.name, std::move(row.metrics));
  report.wall_ms = timer.elapsed_ms();

  std::printf("largest-workload import speedup: %.2fx\n", largest_speedup);
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
