// Local common-subexpression elimination, modeled on GCC's CSE pass as the
// paper describes it (§3.2.2, Figure 4): value-numbered expressions and
// loads are reused within a basic block; a store invalidates conflicting
// loads; a CALL natively purges every memory-derived value ("GCC
// pessimistically assumes that the function can change any memory
// location") — unless HLI call REF/MOD information selectively keeps
// entries the callee cannot modify.
#pragma once

#include <cstdint>
#include <functional>

#include "backend/depinfo.hpp"
#include "backend/rtl.hpp"
#include "hli/query.hpp"

namespace hli::backend {

struct CseStats {
  std::uint64_t exprs_reused = 0;
  std::uint64_t loads_reused = 0;
  std::uint64_t entries_purged_at_calls = 0;
  std::uint64_t entries_kept_at_calls = 0;  ///< Survived thanks to REF/MOD.
  std::uint64_t loads_deleted = 0;          ///< == loads_reused; kept for clarity.

  CseStats& operator+=(const CseStats& other) {
    exprs_reused += other.exprs_reused;
    loads_reused += other.loads_reused;
    entries_purged_at_calls += other.entries_purged_at_calls;
    entries_kept_at_calls += other.entries_kept_at_calls;
    loads_deleted += other.loads_deleted;
    return *this;
  }

  /// Feeds the `cse.*` telemetry counters (docs/observability.md).
  void record_telemetry() const;
};

struct CseOptions {
  bool use_hli = false;
  const query::HliUnitView* view = nullptr;
  /// Answer the store/call invalidation queries from one conflict matrix
  /// per basic block instead of the scalar view (HliPairs, hli_pairs.hpp);
  /// the answers, and so the rewritten RTL, are identical either way.
  bool batch_queries = false;
  /// Invoked for every load insn CSE deletes, BEFORE the rewrite, so the
  /// caller can run HLI maintenance (delete_item) on the mapped item.
  std::function<void(format::ItemId)> on_load_deleted;
  /// Independent back-end dependence oracle (PipelineOptions::
  /// irdep_fallback): when set, a store only invalidates a remembered load
  /// if the oracle also admits a conflict, and a call only purges entries
  /// it may write.  CSE rewrites loads in place (no insn is inserted or
  /// removed during the pass), so positions recorded at entry creation
  /// stay valid for the oracle's index-based queries.
  DepOracle* fallback = nullptr;
};

/// Runs local CSE over every basic block of `func` in place.
CseStats cse_function(RtlFunction& func, const CseOptions& options);

}  // namespace hli::backend
