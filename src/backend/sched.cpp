#include "backend/sched.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "backend/hli_pairs.hpp"
#include "support/telemetry.hpp"

namespace hli::backend {

namespace {

const telemetry::Counter c_mem_queries = telemetry::counter("sched.mem_queries");
const telemetry::Counter c_gcc_yes = telemetry::counter("sched.gcc_yes");
const telemetry::Counter c_hli_yes = telemetry::counter("sched.hli_yes");
const telemetry::Counter c_combined_yes =
    telemetry::counter("sched.combined_yes");
const telemetry::Counter c_ddg_edges_pruned =
    telemetry::counter("sched.ddg_edges_pruned");
const telemetry::Counter c_call_queries =
    telemetry::counter("sched.call_queries");
const telemetry::Counter c_call_edges_pruned =
    telemetry::counter("sched.call_edges_pruned");
const telemetry::Counter c_blocks = telemetry::counter("sched.blocks");
const telemetry::Counter c_insns_scheduled =
    telemetry::counter("sched.insns_scheduled");
const telemetry::Counter c_hli_answers =
    telemetry::counter("query.hli_answers");
const telemetry::Counter c_native_fallbacks =
    telemetry::counter("query.native_fallbacks");

/// One scheduling region: a maximal run of schedulable instructions.
struct Block {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< Exclusive.
};

std::vector<Block> find_blocks(const RtlFunction& func) {
  std::vector<Block> blocks;
  std::size_t at = 0;
  while (at < func.insns.size()) {
    if (is_control(func.insns[at].op)) {
      ++at;
      continue;
    }
    Block block;
    block.begin = at;
    while (at < func.insns.size() && !is_control(func.insns[at].op)) ++at;
    block.end = at;
    blocks.push_back(block);
  }
  return blocks;
}

/// Per-function scratch for block DDG construction, kept across blocks
/// so the per-block tables and lists keep their capacity.
struct SchedScratch {
  explicit SchedScratch(const SchedOptions& options)
      : pairs(options.view, options.batch_queries, options.cache) {}

  static constexpr std::uint32_t kNone = UINT32_MAX;

  std::vector<std::uint64_t> skip;       ///< i-bits register-dependent to j.
  std::vector<std::uint64_t> mem_pos;    ///< i-bits that are memory ops.
  std::vector<std::uint64_t> store_pos;  ///< i-bits that are stores.
  std::vector<std::uint64_t> call_pos;   ///< i-bits that are calls.

  // Per-register tables under block-local dense ids: `slot` maps a Reg
  // to its id (kNone when the block has not named it), `regs` lists the
  // Regs in id order so the slots can be reset at block end.
  std::vector<std::uint32_t> slot;
  std::vector<Reg> regs;
  std::vector<std::uint64_t> writers;  ///< Row per id: every earlier def.
  std::vector<std::uint64_t> readers;  ///< Row per id: every earlier use.
  std::vector<std::uint32_t> last_writer;               ///< Per id.
  std::vector<std::vector<std::uint32_t>> reads_since;  ///< Per id.

  std::vector<std::vector<std::uint32_t>> succs;  ///< Per local insn.
  std::vector<std::uint32_t> preds;               ///< Per local insn.
  HliPairs pairs;
};

class BlockScheduler {
 public:
  BlockScheduler(RtlFunction& func, const Block& block, const SchedOptions& options,
                 DepStats& stats, SchedScratch& scratch)
      : func_(func), block_(block), options_(options), stats_(stats),
        scratch_(scratch), size_(block.end - block.begin) {}

  void run() {
    if (size_ < 2) return;
    build_edges();
    list_schedule();
  }

 private:
  static constexpr std::uint32_t kNone = SchedScratch::kNone;

  [[nodiscard]] Insn& insn_at(std::size_t local) const {
    return func_.insns[block_.begin + local];
  }

  /// Adds the edge i -> j.  A register pair may be linked twice (say,
  /// `rs1 == rs2`); the copy changes neither a priority nor when j gets
  /// ready, since each copy is counted in and counted out.
  void link(std::size_t i, std::size_t j) {
    scratch_.succs[i].push_back(static_cast<std::uint32_t>(j));
    ++scratch_.preds[j];
  }

  /// The combined memory disambiguation of Figure 5, with stats.
  [[nodiscard]] bool mem_dependence(std::size_t i, std::size_t j) {
    const Insn& a = insn_at(i);
    const Insn& b = insn_at(j);
    ++stats_.mem_queries;
    const bool gcc_value = gcc_may_conflict(a.mem, b.mem);
    bool hli_value = gcc_value;  // Without items, fall back to native.
    if (options_.view != nullptr && a.mem.hli_item != format::kNoItem &&
        b.mem.hli_item != format::kNoItem) {
      c_hli_answers.add();
      hli_value = scratch_.pairs.mem_pair(a.mem.hli_item, b.mem.hli_item)
                      .conflict();
    } else {
      c_native_fallbacks.add();
    }
    if (gcc_value) ++stats_.gcc_yes;
    if (hli_value) ++stats_.hli_yes;
    const bool combined = gcc_value && hli_value;
    if (combined) ++stats_.combined_yes;
    const bool base = options_.use_hli ? combined : gcc_value;
    if (options_.fallback == nullptr) return base;
    ++stats_.fallback_queries;
    const bool irdep = options_.fallback->may_conflict(block_.begin + i,
                                                       block_.begin + j);
    if (base && !irdep) ++stats_.fallback_pruned;
    return base && irdep;
  }

  /// Dependence of a memory op against a call (REF/MOD, Figure 4 logic),
  /// by local instruction index.
  [[nodiscard]] bool call_dependence(std::size_t mem_local,
                                     std::size_t call_local) {
    const Insn& mem = insn_at(mem_local);
    const Insn& call = insn_at(call_local);
    ++stats_.call_queries;
    ++stats_.call_edges_native;  // Native GCC always assumes a clobber.
    bool depends = true;
    if (options_.view != nullptr && mem.mem.hli_item != format::kNoItem &&
        call.hli_item != format::kNoItem) {
      const query::CallAcc acc =
          scratch_.pairs.call_acc(mem.mem.hli_item, call.hli_item);
      if (mem.op == Opcode::Load) {
        depends = acc == query::CallAcc::Mod || acc == query::CallAcc::RefMod;
      } else {
        depends = acc != query::CallAcc::None;
      }
    }
    if (depends) ++stats_.call_edges_hli;
    const bool base = options_.use_hli ? depends : true;
    if (options_.fallback == nullptr) return base;
    ++stats_.fallback_queries;
    const unsigned effect = options_.fallback->call_effect(
        block_.begin + call_local, block_.begin + mem_local);
    const bool irdep = mem.op == Opcode::Load
                           ? (effect & kCallWritesLoc) != 0
                           : effect != 0;
    if (base && !irdep) ++stats_.fallback_pruned_calls;
    return base && irdep;
  }

  /// Resets the per-block tables, fills the block occupancy bitmaps and
  /// starts the block's HLI pair queries.
  void prepare_block() {
    words_ = (size_ + 63) / 64;
    scratch_.mem_pos.assign(words_, 0);
    scratch_.store_pos.assign(words_, 0);
    scratch_.call_pos.assign(words_, 0);
    for (std::size_t k = 0; k < size_; ++k) {
      const Insn& insn = insn_at(k);
      const std::uint64_t bit = std::uint64_t{1} << (k & 63);
      if (is_memory_op(insn.op)) {
        scratch_.mem_pos[k >> 6] |= bit;
        if (insn.op == Opcode::Store) scratch_.store_pos[k >> 6] |= bit;
      } else if (insn.op == Opcode::Call) {
        scratch_.call_pos[k >> 6] |= bit;
      }
    }
    scratch_.pairs.prepare(func_.insns, block_.begin, block_.end);

    if (scratch_.succs.size() < size_) scratch_.succs.resize(size_);
    for (std::size_t k = 0; k < size_; ++k) scratch_.succs[k].clear();
    scratch_.preds.assign(size_, 0);
    scratch_.writers.clear();
    scratch_.readers.clear();
    scratch_.last_writer.clear();
  }

  /// Releases the block's register slots for the next block.
  void finish_block() {
    for (const Reg r : scratch_.regs) {
      scratch_.slot[static_cast<std::size_t>(r)] = kNone;
    }
    scratch_.regs.clear();
  }

  /// Block-local dense id of `r`, allocating its rows on first sight.
  std::uint32_t id_of(Reg r) {
    const auto at = static_cast<std::size_t>(r);
    if (at >= scratch_.slot.size()) scratch_.slot.resize(at + 1, kNone);
    std::uint32_t& id = scratch_.slot[at];
    if (id == kNone) {
      id = static_cast<std::uint32_t>(scratch_.regs.size());
      scratch_.regs.push_back(r);
      scratch_.writers.resize(scratch_.writers.size() + words_, 0);
      scratch_.readers.resize(scratch_.readers.size() + words_, 0);
      scratch_.last_writer.push_back(kNone);
      if (scratch_.reads_since.size() <= id) {
        scratch_.reads_since.emplace_back();
      }
      scratch_.reads_since[id].clear();
    }
    return id;
  }

  /// ORs words [0, n) of one per-register row into the skip mask.
  void or_row(const std::vector<std::uint64_t>& rows, std::uint32_t id,
              std::size_t n) {
    const std::uint64_t* row = rows.data() + std::size_t{id} * words_;
    for (std::size_t w = 0; w < n; ++w) scratch_.skip[w] |= row[w];
  }

  /// Calls `fn(i)` for every i < j whose bit is set in `cand` and not in
  /// the skip mask — one AND + countr_zero scan per 64 candidates.
  template <typename Fn>
  void for_each_eligible(const std::vector<std::uint64_t>& cand,
                         std::size_t j, Fn&& fn) {
    const std::size_t wj = j >> 6;
    for (std::size_t w = 0; w <= wj; ++w) {
      std::uint64_t bits = cand[w] & ~scratch_.skip[w];
      if (w == wj) {
        const unsigned rem = static_cast<unsigned>(j & 63);
        bits &= rem != 0 ? (std::uint64_t{1} << rem) - 1 : 0;
      }
      while (bits != 0) {
        const std::size_t i = w * 64 +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        fn(i);
      }
    }
  }

  // Edges are built per j in three phases: registers, then memory pairs,
  // then calls.
  //
  // Register edges come from def/use chains: a true edge from each read
  // register's last writer, an output edge from the defined register's
  // last writer, and an anti edge from each read of it since that write.
  // Every other register-dependent pair (i, j) is reached through a path
  // of these, and every edge has latency >= 1, so readiness, the
  // longest-path priority and hence the schedule are those of the graph
  // that links every register-dependent pair directly.
  //
  // The memory and call phases still skip exactly the pairs that have a
  // direct register dependence — which pairs are queried is what the
  // Table 2 counters count.  That skip mask is j's row of the all-pairs
  // graph: the earlier writers of each register j reads, plus the earlier
  // writers and readers of the register j defines.  The memory and call
  // candidates of one j are disjoint, so neither phase needs the other's
  // edges in the mask.
  void build_edges() {
    prepare_block();
    for (std::size_t j = 0; j < size_; ++j) {
      const Insn& bj = insn_at(j);
      const auto jj = static_cast<std::uint32_t>(j);
      const Reg d = def_of(bj);
      const std::size_t n = (j >> 6) + 1;  // Words holding every i < j.
      scratch_.skip.assign(words_, 0);

      for_each_read(bj, [&](Reg r) {
        const std::uint32_t id = id_of(r);
        or_row(scratch_.writers, id, n);
        if (scratch_.last_writer[id] != kNone) {
          link(scratch_.last_writer[id], j);  // True dependence.
        }
      });
      const std::uint32_t did = d != kNoReg ? id_of(d) : kNone;
      if (did != kNone) {
        or_row(scratch_.writers, did, n);
        or_row(scratch_.readers, did, n);
        if (scratch_.last_writer[did] != kNone) {
          link(scratch_.last_writer[did], j);  // Output dependence.
        }
        for (const std::uint32_t i : scratch_.reads_since[did]) {
          link(i, j);  // Anti dependence.
        }
      }

      if (is_memory_op(bj.op)) {
        // Memory dependences (at least one write): a store tests every
        // earlier memory op, a load only earlier stores.
        const auto& cand =
            bj.op == Opcode::Store ? scratch_.mem_pos : scratch_.store_pos;
        for_each_eligible(cand, j, [&](std::size_t i) {
          if (mem_dependence(i, j)) link(i, j);
        });
        // Earlier calls clobbering this memory op.
        for_each_eligible(scratch_.call_pos, j, [&](std::size_t i) {
          if (call_dependence(j, i)) link(i, j);
        });
      } else if (bj.op == Opcode::Call) {
        // Calls never reorder; earlier memory ops by REF/MOD.
        for_each_eligible(scratch_.call_pos, j,
                          [&](std::size_t i) { link(i, j); });
        for_each_eligible(scratch_.mem_pos, j, [&](std::size_t i) {
          if (call_dependence(i, j)) link(i, j);
        });
      }

      // Enter j into the chains and the all-pairs rows.
      const std::uint64_t bit = std::uint64_t{1} << (j & 63);
      for_each_read(bj, [&](Reg r) {
        const std::uint32_t id = id_of(r);
        scratch_.readers[std::size_t{id} * words_ + (j >> 6)] |= bit;
        scratch_.reads_since[id].push_back(jj);
      });
      if (did != kNone) {
        scratch_.writers[std::size_t{did} * words_ + (j >> 6)] |= bit;
        scratch_.reads_since[did].clear();
        scratch_.last_writer[did] = jj;
      }
    }
    finish_block();
  }

  [[nodiscard]] unsigned latency_of(const Insn& insn) const {
    if (options_.latency) return std::max(1u, options_.latency(insn));
    return 1;
  }

  void list_schedule() {
    // Priority: longest latency-weighted path to the block exit.
    std::vector<unsigned> priority(size_, 0);
    for (std::size_t idx = size_; idx-- > 0;) {
      unsigned best = 0;
      for (const std::uint32_t succ : scratch_.succs[idx]) {
        best = std::max(best, priority[succ]);
      }
      priority[idx] = best + latency_of(insn_at(idx));
    }

    // Ready heap: the highest priority first, ties to the earliest
    // original position (stable, deterministic).
    const auto later = [&priority](std::uint32_t a, std::uint32_t b) {
      return priority[a] != priority[b] ? priority[a] < priority[b] : a > b;
    };
    std::vector<std::uint32_t> ready;
    std::vector<std::uint32_t>& remaining = scratch_.preds;
    for (std::uint32_t idx = 0; idx < size_; ++idx) {
      if (remaining[idx] == 0) ready.push_back(idx);
    }
    std::make_heap(ready.begin(), ready.end(), later);

    std::vector<Insn> scheduled;
    scheduled.reserve(size_);
    while (!ready.empty()) {
      std::pop_heap(ready.begin(), ready.end(), later);
      const std::uint32_t best = ready.back();
      ready.pop_back();
      scheduled.push_back(std::move(insn_at(best)));
      for (const std::uint32_t succ : scratch_.succs[best]) {
        if (--remaining[succ] == 0) {
          ready.push_back(succ);
          std::push_heap(ready.begin(), ready.end(), later);
        }
      }
    }

    // Rewrite the block.
    for (std::size_t k = 0; k < size_; ++k) {
      insn_at(k) = std::move(scheduled[k]);
    }
    stats_.scheduled_insns += size_;
  }

  RtlFunction& func_;
  const Block& block_;
  const SchedOptions& options_;
  DepStats& stats_;
  SchedScratch& scratch_;
  std::size_t size_;
  std::size_t words_ = 0;
};

}  // namespace

void DepStats::record_telemetry(bool hli_applied) const {
  c_mem_queries.add(mem_queries);
  c_gcc_yes.add(gcc_yes);
  c_hli_yes.add(hli_yes);
  c_combined_yes.add(combined_yes);
  c_call_queries.add(call_queries);
  c_blocks.add(blocks);
  c_insns_scheduled.add(scheduled_insns);
  // Edges that exist under the native oracle but not under the combined
  // answer — pruned only when the schedule actually applied the HLI.
  if (hli_applied) {
    c_ddg_edges_pruned.add(gcc_yes - combined_yes);
    c_call_edges_pruned.add(call_edges_native - call_edges_hli);
  }
}

DepStats schedule_function(RtlFunction& func, const SchedOptions& options) {
  DepStats stats;
  SchedScratch scratch(options);  // One arena for all blocks.
  for (const Block& block : find_blocks(func)) {
    ++stats.blocks;
    BlockScheduler scheduler(func, block, options, stats, scratch);
    scheduler.run();
  }
  return stats;
}

}  // namespace hli::backend
