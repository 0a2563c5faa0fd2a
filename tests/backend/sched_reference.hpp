// The block scheduler built the direct way, kept as a test-only oracle
// for backend/sched.cpp: every register pair of a block is tested and
// every direct edge stored, and each pick scans the whole block for the
// best ready instruction.  Quadratic in the block size, and plainly the
// construction Figure 5 describes.  sched_diff_test.cpp requires the
// production scheduler to give the same order and the same DepStats.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "backend/hli_pairs.hpp"
#include "backend/sched.hpp"

namespace hli::backend::sched_reference {

namespace detail {

/// One scheduling region: a maximal run of schedulable instructions.
struct Block {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< Exclusive.
};

inline std::vector<Block> find_blocks(const RtlFunction& func) {
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

/// Per-function scratch: the read set of `j`, the per-`j` edge bitmap,
/// the block occupancy bitmaps and the HLI pair queries.
struct SchedScratch {
  explicit SchedScratch(const SchedOptions& options)
      : pairs(options.view, options.batch_queries, options.cache) {}

  std::vector<Reg> j_reads;
  std::vector<std::uint64_t> edge_row;   ///< i-bits with an edge to j.
  std::vector<std::uint64_t> mem_pos;    ///< i-bits that are memory ops.
  std::vector<std::uint64_t> store_pos;  ///< i-bits that are stores.
  std::vector<std::uint64_t> call_pos;   ///< i-bits that are calls.
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
  [[nodiscard]] const Insn& insn_at(std::size_t local) const {
    return func_.insns[block_.begin + local];
  }

  void add_edge(std::size_t i, std::size_t j) {
    // The per-j bitmap dedups edges and is the mask the memory and call
    // phases AND against.
    std::uint64_t& word = scratch_.edge_row[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((word & bit) != 0) return;
    word |= bit;
    succs_[i].push_back(j);
    ++preds_[j];
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
      hli_value = scratch_.pairs.mem_pair(a.mem.hli_item, b.mem.hli_item)
                      .conflict();
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

  /// Fills the block occupancy bitmaps and starts the block's HLI pair
  /// queries.
  void prepare_block() {
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
  }

  /// Calls `fn(i)` for every i < j whose bit is set in `cand` and that
  /// has no edge to j yet — one AND + countr_zero scan per 64 candidates.
  template <typename Fn>
  void for_each_eligible(const std::vector<std::uint64_t>& cand,
                         std::size_t j, Fn&& fn) {
    const std::size_t wj = j >> 6;
    for (std::size_t w = 0; w <= wj; ++w) {
      std::uint64_t bits = cand[w] & ~scratch_.edge_row[w];
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

  // Per j: register dependences against every earlier instruction, then
  // memory pairs, then calls.  Each (i, j) gains at most one edge, and
  // the memory and call phases test only the pairs with no edge yet.
  void build_edges() {
    succs_.assign(size_, {});
    preds_.assign(size_, 0);
    words_ = (size_ + 63) / 64;
    prepare_block();

    for (std::size_t j = 0; j < size_; ++j) {
      const Insn& bj = insn_at(j);
      const Reg j_write = def_of(bj);
      scratch_.j_reads.clear();
      for_each_read(bj, [&](Reg r) { scratch_.j_reads.push_back(r); });
      scratch_.edge_row.assign(words_, 0);

      // Register dependences.
      for (std::size_t i = 0; i < j; ++i) {
        const Insn& bi = insn_at(i);
        const Reg i_write = def_of(bi);
        bool edge = false;
        if (i_write != kNoReg) {
          if (std::find(scratch_.j_reads.begin(), scratch_.j_reads.end(),
                        i_write) != scratch_.j_reads.end()) {
            edge = true;  // True dependence.
          }
          if (i_write == j_write) edge = true;  // Output dependence.
        }
        if (!edge && j_write != kNoReg) {
          for_each_read(bi, [&](Reg r) {
            if (r == j_write) edge = true;  // Anti dependence.
          });
        }
        if (edge) add_edge(i, j);
      }

      if (is_memory_op(bj.op)) {
        // Memory dependences (at least one write): a store tests every
        // earlier memory op, a load only earlier stores.
        const auto& cand =
            bj.op == Opcode::Store ? scratch_.mem_pos : scratch_.store_pos;
        for_each_eligible(cand, j, [&](std::size_t i) {
          if (mem_dependence(i, j)) add_edge(i, j);
        });
        // Earlier calls clobbering this memory op.
        for_each_eligible(scratch_.call_pos, j, [&](std::size_t i) {
          if (call_dependence(j, i)) add_edge(i, j);
        });
      } else if (bj.op == Opcode::Call) {
        // Calls never reorder; earlier memory ops by REF/MOD.
        for_each_eligible(scratch_.call_pos, j,
                          [&](std::size_t i) { add_edge(i, j); });
        for_each_eligible(scratch_.mem_pos, j, [&](std::size_t i) {
          if (call_dependence(i, j)) add_edge(i, j);
        });
      }
    }
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
      for (const std::size_t succ : succs_[idx]) {
        best = std::max(best, priority[succ]);
      }
      priority[idx] = best + latency_of(insn_at(idx));
    }

    std::vector<std::size_t> order;
    order.reserve(size_);
    std::vector<unsigned> remaining = preds_;
    std::vector<bool> done(size_, false);

    for (std::size_t emitted = 0; emitted < size_; ++emitted) {
      // Pick the ready instruction with the highest priority; break ties
      // by original position (stable, deterministic).
      std::size_t best = size_;
      for (std::size_t idx = 0; idx < size_; ++idx) {
        if (done[idx] || remaining[idx] != 0) continue;
        if (best == size_ || priority[idx] > priority[best]) best = idx;
      }
      order.push_back(best);
      done[best] = true;
      for (const std::size_t succ : succs_[best]) --remaining[succ];
    }

    // Rewrite the block.
    std::vector<Insn> scheduled;
    scheduled.reserve(size_);
    for (const std::size_t idx : order) scheduled.push_back(insn_at(idx));
    for (std::size_t k = 0; k < size_; ++k) {
      func_.insns[block_.begin + k] = std::move(scheduled[k]);
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
  std::vector<std::vector<std::size_t>> succs_;
  std::vector<unsigned> preds_;
};

}  // namespace detail

/// The reference counterpart of backend::schedule_function.
inline DepStats schedule_function(RtlFunction& func,
                                  const SchedOptions& options) {
  DepStats stats;
  detail::SchedScratch scratch(options);
  for (const detail::Block& block : detail::find_blocks(func)) {
    ++stats.blocks;
    detail::BlockScheduler scheduler(func, block, options, stats, scratch);
    scheduler.run();
  }
  return stats;
}

}  // namespace hli::backend::sched_reference
