// Serialization bench: text "HLI v1" vs the HLIB binary container, on the
// largest single workload and on one combined container holding all 14
// workloads (unit names prefixed "workload:unit" to keep them distinct).
// Measured per format: write, full import, and — binary only — the lazy
// cost of opening the container and decoding a single unit, which is what
// a demand-driven `compile_source` pays.  The binary/text full-import
// ratio is the headline number; the lazy row shows why the per-unit index
// matters beyond raw decode speed.  `--json <path>` writes the
// machine-readable report.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/serialize.hpp"
#include "hli/store.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

volatile std::size_t g_sink = 0;  // Defeats dead-code elimination.

/// Milliseconds per call of `op`: best of three `min_ms` windows, so a
/// scheduler hiccup in one window doesn't skew the ratio between rows.
template <typename Op>
double measure_ms(double min_ms, const Op& op) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t calls = 0;
    std::size_t sink = 0;
    const benchutil::WallTimer timer;
    double elapsed;
    do {
      sink += op();
      ++calls;
    } while ((elapsed = timer.elapsed_ms()) < min_ms);
    g_sink = g_sink + sink;
    best = std::min(best, elapsed / static_cast<double>(calls));
  }
  return best;
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
  constexpr double kMinMs = 60.0;
  const std::string text = serialize::write_hli(file);
  const std::string binary = serialize::write_hlib(file);

  const double text_write_ms =
      measure_ms(kMinMs, [&] { return serialize::write_hli(file).size(); });
  const double binary_write_ms =
      measure_ms(kMinMs, [&] { return serialize::write_hlib(file).size(); });
  const double text_read_ms = measure_ms(
      kMinMs, [&] { return serialize::read_hli(text).entries.size(); });
  const double binary_read_ms = measure_ms(
      kMinMs, [&] { return serialize::read_hlib(binary).entries.size(); });
  // Demand-driven cost: open the container (meta block only) and decode
  // exactly one unit — independent of how many units the file holds.
  const std::string first_unit = file.entries.front().unit_name;
  const double lazy_open_ms = measure_ms(kMinMs, [&] {
    const HliStore store{std::string(binary)};
    const format::HliEntry* entry = store.get(first_unit);
    return entry != nullptr ? entry->regions.size() : 0;
  });

  const double read_speedup =
      binary_read_ms > 0.0 ? text_read_ms / binary_read_ms : 0.0;
  const double size_ratio =
      binary.empty() ? 0.0
                     : static_cast<double>(text.size()) /
                           static_cast<double>(binary.size());

  std::printf("%-18s %5zu units %8zu B text %8zu B bin (%.2fx smaller)\n",
              label.c_str(), file.entries.size(), text.size(), binary.size(),
              size_ratio);
  std::printf("  %-24s %10.4f ms text %10.4f ms bin\n", "write",
              text_write_ms, binary_write_ms);
  std::printf("  %-24s %10.4f ms text %10.4f ms bin (%.2fx faster)\n",
              "full import", text_read_ms, binary_read_ms, read_speedup);
  std::printf("  %-24s %10.4f ms\n", "lazy open + 1 unit", lazy_open_ms);

  return {label,
          {{"units", static_cast<double>(file.entries.size())},
           {"text_bytes", static_cast<double>(text.size())},
           {"binary_bytes", static_cast<double>(binary.size())},
           {"size_ratio", size_ratio},
           {"text_write_ms", text_write_ms},
           {"binary_write_ms", binary_write_ms},
           {"text_read_ms", text_read_ms},
           {"binary_read_ms", binary_read_ms},
           {"read_speedup", read_speedup},
           {"binary_lazy_open_ms", lazy_open_ms}}};
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
  Row row = bench_one(largest_name, largest);
  const double largest_speedup = row.metrics[8].value;
  report.add(row.name, std::move(row.metrics));
  row = bench_one("combined-14", combined);
  report.add(row.name, std::move(row.metrics));
  report.wall_ms = timer.elapsed_ms();

  std::printf("largest-workload import speedup: %.2fx\n", largest_speedup);
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
