// Query-engine microbenchmark: pairwise may_conflict over the largest
// workload unit, reported as ns/query, for the dense indexed HliUnitView
// against the original map-based implementation (kept verbatim as the
// reference oracle in hli/reference_query.hpp), plus two comparisons on
// DDG-shaped blocks (every i<j pair of a block's memory references):
//   * the batched BlockConflictMatrix's row scan against the scalar
//     per-pair view (per-block matrix build included in the batched time);
//   * the scheduler's memory phase as it runs: one GccConflictRows row and
//     one HliPairs::conflict_row per reference, against the per-pair
//     gcc_may_conflict + HliPairs::mem_pair loop it replaced (both with
//     batching on, matrix build and row set-up included).
// Every timing is repeated kTrials times and reported through
// benchutil::spread() as its median, minimum and maximum.
// `--json <path>` writes the machine-readable report.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "backend/hli_pairs.hpp"
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

/// The block as the scheduler sees it: one memory instruction per
/// reference, every third a store, two of three addressed through a
/// pointer (a subscript in a register) and the rest symbol + constant.
std::vector<backend::Insn> make_insns(const std::vector<format::ItemId>& block) {
  std::vector<backend::Insn> insns(block.size());
  for (std::size_t k = 0; k < block.size(); ++k) {
    backend::Insn& insn = insns[k];
    insn.op = k % 3 == 0 ? backend::Opcode::Store : backend::Opcode::Load;
    insn.mem.hli_item = block[k];
    if (k % 3 == 2) {
      insn.mem.base = backend::MemBase::Symbol;
      insn.mem.symbol = static_cast<std::int32_t>(block[k] % 5);
      insn.mem.offset_known = true;
      insn.mem.const_offset = static_cast<std::int64_t>(4 * (k % 7));
    }
  }
  return insns;
}

/// The scheduler's memory phase before rows: per i<j pair, the native
/// answer and the HLI answer through HliPairs::mem_pair.
double measure_pair_phase(const query::HliUnitView& view,
                          const std::vector<backend::Insn>& insns,
                          double min_ms) {
  backend::HliPairs pairs(&view, true);
  std::uint64_t count = 0;
  unsigned sink = 0;
  const benchutil::WallTimer timer;
  do {
    pairs.prepare(insns, 0, insns.size());
    for (std::size_t j = 1; j < insns.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        const bool gcc = backend::gcc_may_conflict(insns[i].mem, insns[j].mem);
        const bool hli =
            pairs.mem_pair(insns[i].mem.hli_item, insns[j].mem.hli_item)
                .conflict();
        sink += static_cast<unsigned>(gcc && hli);
      }
    }
    count += insns.size() * (insns.size() - 1) / 2;
  } while (timer.elapsed_ms() < min_ms);
  g_sink = g_sink + sink;
  return timer.elapsed_ms() * 1e6 / static_cast<double>(count);
}

/// The scheduler's memory phase in rows: per reference j, its native row
/// from GccConflictRows and its HLI row from HliPairs::conflict_row over
/// every earlier reference.
double measure_row_phase(const query::HliUnitView& view,
                         const std::vector<backend::Insn>& insns,
                         double min_ms) {
  backend::HliPairs pairs(&view, true);
  backend::GccConflictRows rows;
  const std::size_t n = insns.size();
  std::vector<format::ItemId> items(n);
  std::vector<std::uint32_t> slots(n);
  std::vector<std::uint64_t> ask(n / 64 + 1);
  std::vector<std::uint64_t> gcc(n / 64 + 1);
  std::vector<std::uint64_t> hli(n / 64 + 1);
  std::uint64_t count = 0;
  unsigned sink = 0;
  const benchutil::WallTimer timer;
  do {
    pairs.prepare(insns, 0, n);
    rows.reset(n);
    for (std::size_t k = 0; k < n; ++k) {
      rows.add(k, insns[k].mem);
      items[k] = insns[k].mem.hli_item;
      slots[k] = pairs.mem_slot(items[k]);
    }
    std::fill(ask.begin(), ask.end(), 0);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t words = j / 64 + 1;
      rows.row(j, j, gcc.data());
      pairs.conflict_row({items.data(), slots.data()}, items[j], slots[j],
                         ask.data(), words, hli.data());
      for (std::size_t w = 0; w < words; ++w) {
        sink += static_cast<unsigned>(std::popcount(gcc[w] & hli[w]));
      }
      ask[j >> 6] |= std::uint64_t{1} << (j & 63);
    }
    count += n * (n - 1) / 2;
  } while (timer.elapsed_ms() < min_ms);
  g_sink = g_sink + sink;
  return timer.elapsed_ms() * 1e6 / static_cast<double>(count);
}

constexpr unsigned kTrials = 5;
constexpr double kMinMs = 40.0;  // Measuring window of one trial.

/// kTrials runs of `measure`, each over a kMinMs window.
template <typename Measure>
std::vector<double> trials(Measure&& measure) {
  std::vector<double> out;
  for (unsigned t = 0; t < kTrials; ++t) out.push_back(measure(kMinMs));
  return out;
}

/// Median of the per-trial ratios slow / fast.
double speedup(const std::vector<double>& slow,
               const std::vector<double>& fast) {
  std::vector<double> ratios;
  for (std::size_t t = 0; t < slow.size(); ++t) {
    if (fast[t] > 0.0) ratios.push_back(slow[t] / fast[t]);
  }
  return benchutil::median(ratios);
}

/// `metrics` plus the spread of each named series.
std::vector<benchutil::Metric> with_spreads(
    std::vector<benchutil::Metric> metrics,
    const std::vector<std::pair<std::string, std::vector<double>>>& series) {
  for (const auto& [key, samples] : series) {
    for (benchutil::Metric& m : benchutil::spread(key, samples)) {
      metrics.push_back(std::move(m));
    }
  }
  return metrics;
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

  const std::vector<double> dense_ns = trials(
      [&](double ms) { return measure_ns_per_query(dense, items, ms); });
  const std::vector<double> ref_ns = trials(
      [&](double ms) { return measure_ns_per_query(reference, items, ms); });
  const double dense_speedup = speedup(ref_ns, dense_ns);

  std::printf("may_conflict microbenchmark on %s (%zu items, %zu pairs), "
              "median of %u\n",
              best_label.c_str(), items.size(), items.size() * items.size(),
              kTrials);
  std::printf("%-28s %12s\n", "implementation", "ns/query");
  std::printf("%-28s %12.1f\n", "map-based (reference)",
              benchutil::median(ref_ns));
  std::printf("%-28s %12.1f\n", "dense indexed", benchutil::median(dense_ns));
  std::printf("speedup: %.2fx\n", dense_speedup);

  benchutil::JsonReport report;
  report.bench = "query_micro";
  report.trials = kTrials;
  report.add(best_label,
             with_spreads({{"items", static_cast<double>(items.size())},
                           {"speedup", dense_speedup}},
                          {{"reference_ns_per_query", ref_ns},
                           {"dense_ns_per_query", dense_ns}}));

  // On DDG-shaped blocks: the matrix's row scan against the scalar view,
  // and the scheduler's row phase against its per-pair phase.
  std::printf("\nblock DDG sweep, ns per i<j pair (median of %u)\n",
              kTrials);
  std::printf("%-8s %10s %10s %8s %10s %10s %8s\n", "block", "scalar",
              "matrix", "speedup", "sched pair", "sched row", "speedup");
  for (const std::size_t size : {8u, 32u, 128u, 512u}) {
    const std::vector<format::ItemId> block = make_block(items, size);
    const std::vector<backend::Insn> insns = make_insns(block);
    const std::vector<double> scalar_ns = trials(
        [&](double ms) { return measure_scalar_block(dense, block, ms); });
    const std::vector<double> batched_ns = trials(
        [&](double ms) { return measure_batched_block(dense, block, ms); });
    const std::vector<double> pair_ns = trials(
        [&](double ms) { return measure_pair_phase(dense, insns, ms); });
    const std::vector<double> row_ns = trials(
        [&](double ms) { return measure_row_phase(dense, insns, ms); });
    const double block_speedup = speedup(scalar_ns, batched_ns);
    const double row_speedup = speedup(pair_ns, row_ns);
    std::printf("%-8zu %10.2f %10.2f %7.2fx %10.2f %10.2f %7.2fx\n", size,
                benchutil::median(scalar_ns), benchutil::median(batched_ns),
                block_speedup, benchutil::median(pair_ns),
                benchutil::median(row_ns), row_speedup);
    report.add("block/" + std::to_string(size),
               with_spreads({{"block_size", static_cast<double>(size)},
                             {"speedup", block_speedup},
                             {"sched_row_speedup", row_speedup}},
                            {{"scalar_ns_per_pair", scalar_ns},
                             {"batched_ns_per_pair", batched_ns},
                             {"sched_pair_ns_per_pair", pair_ns},
                             {"sched_row_ns_per_pair", row_ns}}));
  }
  report.wall_ms = timer.elapsed_ms();
  if (!args.json_path.empty() && !report.write(args.json_path)) return 1;
  return 0;
}
