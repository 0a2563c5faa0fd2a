// Query-engine microbenchmark: pairwise may_conflict over the largest
// workload unit, reported as ns/query, for the dense indexed HliUnitView
// against the original map-based implementation (kept verbatim as the
// reference oracle in hli/reference_query.hpp), plus the batched
// BlockConflictMatrix against the scalar per-pair path on DDG-shaped
// blocks (every i<j pair of a block's memory references, including the
// per-block matrix build in the batched time).  This is the scheduler's
// hot path — sched1/sched2 issue one may_conflict per memory-insn pair —
// so the speedups here bound the compile-time win of the dense rewrite
// and of the per-block batching layer on top of it.
// `--json <path>` writes the machine-readable report.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "frontend/sema.hpp"
#include "hli/batch_query.hpp"
#include "frontend/hligen.hpp"
#include "hli/query.hpp"
#include "hli/reference_query.hpp"
#include "hli/serialize.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

// Keeps the measured loops from being optimized away.
volatile unsigned g_sink = 0;

std::vector<format::ItemId> memory_items(const format::HliEntry& entry) {
  std::vector<format::ItemId> items;
  for (const auto& line : entry.line_table.lines()) {
    for (const auto& item : line.items) items.push_back(item.id);
  }
  return items;
}

/// Runs full pairwise sweeps until at least `min_ms` of wall time has
/// accumulated, returning nanoseconds per query.
template <typename View>
double measure_ns_per_query(const View& view,
                            const std::vector<format::ItemId>& items,
                            double min_ms) {
  std::uint64_t queries = 0;
  unsigned sink = 0;
  const benchutil::WallTimer timer;
  do {
    for (const format::ItemId a : items) {
      for (const format::ItemId b : items) {
        sink += static_cast<unsigned>(view.may_conflict(a, b));
      }
    }
    queries += static_cast<std::uint64_t>(items.size()) * items.size();
  } while (timer.elapsed_ms() < min_ms);
  g_sink = g_sink + sink;
  return timer.elapsed_ms() * 1e6 / static_cast<double>(queries);
}

/// A scheduling-block-shaped reference stream: `size` memory references
/// drawn from the unit's item pool with the reuse a real block shows —
/// a few hot items referenced repeatedly (loop-invariant bases, the
/// induction array) mixed with a colder strided sweep.
std::vector<format::ItemId> make_block(const std::vector<format::ItemId>& pool,
                                       std::size_t size) {
  std::vector<format::ItemId> block;
  block.reserve(size);
  const std::size_t hot = std::min<std::size_t>(4, pool.size());
  // Distinct references grow sublinearly with block size, the way real
  // blocks do (an unrolled body re-touches the same arrays every copy).
  const std::size_t cold = std::min(pool.size(), 2 + size / 4);
  for (std::size_t k = 0; k < size; ++k) {
    if (k % 3 == 0 && hot > 0) {
      block.push_back(pool[k % hot]);  // Hot reuse: every third reference.
    } else {
      block.push_back(pool[(k * 7 + 3) % cold]);
    }
  }
  return block;
}

/// Scalar baseline: the DDG pair loop exactly as the non-batched
/// scheduler runs it — one may_conflict per i<j reference pair.
double measure_scalar_block(const query::HliUnitView& view,
                            const std::vector<format::ItemId>& block,
                            double min_ms) {
  std::uint64_t pairs = 0;
  unsigned sink = 0;
  const benchutil::WallTimer timer;
  do {
    for (std::size_t j = 1; j < block.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        sink += static_cast<unsigned>(view.may_conflict(block[i], block[j]));
      }
    }
    pairs += block.size() * (block.size() - 1) / 2;
  } while (timer.elapsed_ms() < min_ms);
  g_sink = g_sink + sink;
  return timer.elapsed_ms() * 1e6 / static_cast<double>(pairs);
}

/// Batched path, shaped like the batched build_edges: build the block's
/// conflict matrix, resolve each reference's slot once, then sweep each
/// reference's conflict row word-at-a-time against the occupancy of the
/// references before it, visiting each conflicting predecessor slot with
/// a bit scan.  Repeated references share one slot, so their answers are
/// derived once — that dedup plus the word scans IS the batching win.
/// Build + slot resolution are inside the timed region — the honest
/// per-block cost.  Reported per reference pair, the same denominator as
/// the scalar sweep (both determine the full i<j conflict relation).
double measure_batched_block(const query::HliUnitView& view,
                             const std::vector<format::ItemId>& block,
                             double min_ms) {
  query::BlockConflictMatrix matrix;
  std::vector<std::uint32_t> slots(block.size());
  std::vector<std::uint64_t> occupancy;
  std::uint64_t pairs = 0;
  unsigned sink = 0;
  const benchutil::WallTimer timer;
  do {
    matrix.build(view, block);
    for (std::size_t k = 0; k < block.size(); ++k) {
      slots[k] = matrix.slot_of(block[k]);
    }
    occupancy.assign(matrix.words_per_row(), 0);
    for (std::size_t j = 0; j < block.size(); ++j) {
      const std::uint64_t* row = matrix.conflict_row(slots[j]);
      for (std::uint32_t w = 0; w < matrix.words_per_row(); ++w) {
        std::uint64_t bits = row[w] & occupancy[w];
        while (bits != 0) {
          sink += static_cast<unsigned>(std::countr_zero(bits)) + 64 * w;
          bits &= bits - 1;
        }
      }
      occupancy[slots[j] >> 6] |= std::uint64_t{1} << (slots[j] & 63);
    }
    pairs += block.size() * (block.size() - 1) / 2;
  } while (timer.elapsed_ms() < min_ms);
  g_sink = g_sink + sink;
  return timer.elapsed_ms() * 1e6 / static_cast<double>(pairs);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args = benchutil::BenchArgs::parse(argc, argv);
  const benchutil::WallTimer timer;

  // Pick the unit with the most memory items across all workloads; the
  // back-end always queries a re-read file, so round-trip the HLI first.
  std::string best_label;
  std::string best_unit;
  format::HliFile best_file;
  std::size_t best_items = 0;
  for (const auto& workload : workloads::all_workloads()) {
    support::DiagnosticEngine diags;
    frontend::Program prog = frontend::compile_to_ast(workload.source, diags);
    const std::string text = serialize::write_hli(builder::build_hli(prog));
    format::HliFile file = serialize::read_hli(text);
    bool improved = false;
    for (const format::HliEntry& entry : file.entries) {
      const std::size_t n = memory_items(entry).size();
      if (n > best_items) {
        best_items = n;
        best_unit = entry.unit_name;
        best_label = workload.name + "/" + entry.unit_name;
        improved = true;
      }
    }
    if (improved) best_file = std::move(file);
  }
  const format::HliEntry* best_entry = best_file.find_unit(best_unit);
  if (best_entry == nullptr) {
    std::fprintf(stderr, "no workload unit with memory items found\n");
    return 1;
  }
  const std::vector<format::ItemId> items = memory_items(*best_entry);

  const query::HliUnitView dense(*best_entry);
  const query::reference::ReferenceUnitView reference(*best_entry);

  constexpr double kMinMs = 200.0;  // Per-implementation measuring window.
  const double dense_ns = measure_ns_per_query(dense, items, kMinMs);
  const double ref_ns = measure_ns_per_query(reference, items, kMinMs);
  const double speedup = dense_ns > 0.0 ? ref_ns / dense_ns : 0.0;

  std::printf("may_conflict microbenchmark on %s (%zu items, %zu pairs)\n",
              best_label.c_str(), items.size(), items.size() * items.size());
  std::printf("%-28s %12s\n", "implementation", "ns/query");
  std::printf("%-28s %12.1f\n", "map-based (reference)", ref_ns);
  std::printf("%-28s %12.1f\n", "dense indexed", dense_ns);
  std::printf("speedup: %.2fx\n", speedup);

  benchutil::JsonReport report;
  report.bench = "query_micro";
  report.add(best_label, {{"items", static_cast<double>(items.size())},
                          {"reference_ns_per_query", ref_ns},
                          {"dense_ns_per_query", dense_ns},
                          {"speedup", speedup}});

  // Batched vs scalar on DDG-shaped blocks (per-block matrix build
  // included in the batched time).
  std::printf("\nblock DDG sweep: batched BlockConflictMatrix vs scalar\n");
  std::printf("%-12s %14s %14s %10s\n", "block", "scalar ns/pair",
              "batched ns/pair", "speedup");
  for (const std::size_t size : {8u, 32u, 128u, 512u}) {
    const std::vector<format::ItemId> block = make_block(items, size);
    const double scalar_ns = measure_scalar_block(dense, block, kMinMs);
    const double batched_ns = measure_batched_block(dense, block, kMinMs);
    const double block_speedup = batched_ns > 0.0 ? scalar_ns / batched_ns : 0.0;
    std::printf("%-12zu %14.2f %14.2f %9.2fx\n", size, scalar_ns, batched_ns,
                block_speedup);
    report.add("block/" + std::to_string(size),
               {{"block_size", static_cast<double>(size)},
                {"scalar_ns_per_pair", scalar_ns},
                {"batched_ns_per_pair", batched_ns},
                {"speedup", block_speedup}});
  }
  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
