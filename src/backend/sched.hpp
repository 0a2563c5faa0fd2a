// Basic-block list instruction scheduling with a data-dependence graph —
// the back-end pass the paper instruments (§4.2, Figure 5).  For every
// pair of memory references in a block with at least one write, the
// scheduler asks BOTH disambiguators:
//   gcc_value = gcc_may_conflict(A, B)            (native GCC answer)
//   hli_value = HLI_GetEquivAcc/alias(A, B) != NONE
// and inserts an edge per  flag_use_hli ? gcc && hli : gcc  — recording
// the Table 2 counters (total queries, GCC-yes, HLI-yes, combined-yes).
#pragma once

#include <cstdint>
#include <functional>

#include "backend/depinfo.hpp"
#include "backend/rtl.hpp"
#include "hli/query.hpp"

namespace hli::backend {

struct DepStats {
  std::uint64_t mem_queries = 0;   ///< Mem-mem pairs tested (>= one write).
  std::uint64_t gcc_yes = 0;       ///< Native analyzer said "dependence".
  std::uint64_t hli_yes = 0;       ///< HLI said "may be same location".
  std::uint64_t combined_yes = 0;  ///< Both said yes (edges when HLI on).
  std::uint64_t call_queries = 0;  ///< Mem-call REF/MOD queries.
  std::uint64_t call_edges_native = 0;
  std::uint64_t call_edges_hli = 0;
  std::uint64_t blocks = 0;
  std::uint64_t scheduled_insns = 0;
  std::uint64_t fallback_queries = 0;  ///< Pairs the irdep fallback re-tested.
  std::uint64_t fallback_pruned = 0;   ///< Mem-mem edges removed beyond base.
  std::uint64_t fallback_pruned_calls = 0;  ///< Mem-call edges removed.

  DepStats& operator+=(const DepStats& other) {
    mem_queries += other.mem_queries;
    gcc_yes += other.gcc_yes;
    hli_yes += other.hli_yes;
    combined_yes += other.combined_yes;
    call_queries += other.call_queries;
    call_edges_native += other.call_edges_native;
    call_edges_hli += other.call_edges_hli;
    blocks += other.blocks;
    scheduled_insns += other.scheduled_insns;
    fallback_queries += other.fallback_queries;
    fallback_pruned += other.fallback_pruned;
    fallback_pruned_calls += other.fallback_pruned_calls;
    return *this;
  }

  /// Feeds the `sched.*` telemetry counters (docs/observability.md).
  /// `hli_applied` says whether the schedule actually used HLI answers:
  /// `sched.ddg_edges_pruned` (gcc_yes - combined_yes) is reported only
  /// then, so an HLI-off compile reports 0 pruned edges.
  void record_telemetry(bool hli_applied) const;
};

struct SchedOptions {
  /// Figure 5's flag_use_hli: combine the HLI answer into edge insertion.
  bool use_hli = false;
  /// HLI view for the function being scheduled; may be null when use_hli
  /// is false (stats then report hli_yes == gcc_yes pairs only if wanted).
  const query::HliUnitView* view = nullptr;
  /// Optional pairwise memo for the view's may_conflict answers, keyed on
  /// the unordered item pair.  Share one cache across scheduling passes of
  /// the same function (the HLI is not mutated between sched1 and sched2)
  /// so repeated DDG edge tests hit precomputed answers.  Only the HLI
  /// answer is cached — the Table 2 counters are incremented per query
  /// either way, so statistics are unaffected.  Consulted only for pairs
  /// the scalar view answers.
  query::ConflictCache* cache = nullptr;
  /// Answer the block's HLI pair queries from one conflict matrix built
  /// per block (single bit tests) instead of per-pair scalar
  /// may_conflict/get_call_acc calls (HliPairs, hli_pairs.hpp).  The
  /// answers are identical, so the schedule — and every Table 2 counter —
  /// is byte-identical either way; only the query cost changes.  No
  /// effect when `view` is null.
  bool batch_queries = false;
  /// Instruction latency oracle (supplied by the machine model); default
  /// unit latencies when absent.
  std::function<unsigned(const Insn&)> latency;
  /// Independent back-end dependence oracle (PipelineOptions::
  /// irdep_fallback): when set, its answer is ANDed into every memory and
  /// call dependence — a `false` removes the edge even when the native
  /// (or HLI) answer kept it.  Must be fresh w.r.t. the function's
  /// current instruction indices.
  DepOracle* fallback = nullptr;
};

/// Schedules every basic block of `func` in place and returns the
/// dependence statistics of this (first) scheduling pass.
DepStats schedule_function(RtlFunction& func, const SchedOptions& options);

}  // namespace hli::backend
