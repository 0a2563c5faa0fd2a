// Loop-invariant code motion (§3.2.2: "a memory reference can be moved out
// of a loop only when there remains no other memory reference in the loop
// that can possibly alias the memory reference").  Pure computations with
// loop-invariant inputs always hoist; loads additionally need the
// no-conflicting-store/no-clobbering-call check — natively via the GCC
// oracle, or sharpened by HLI alias + call REF/MOD queries.
//
// Hoisted loads are items moved to the enclosing region: the pass reports
// them so the driver can run HLI maintenance (move_item_to_region).
#pragma once

#include <cstdint>
#include <functional>

#include "backend/depinfo.hpp"
#include "backend/rtl.hpp"
#include "hli/query.hpp"

namespace hli::backend {

struct LicmStats {
  std::uint64_t pure_hoisted = 0;
  std::uint64_t loads_hoisted = 0;
  std::uint64_t loads_blocked_native = 0;  ///< GCC oracle said "may conflict".
  std::uint64_t loads_blocked_hli = 0;     ///< HLI also said "may conflict".

  LicmStats& operator+=(const LicmStats& other) {
    pure_hoisted += other.pure_hoisted;
    loads_hoisted += other.loads_hoisted;
    loads_blocked_native += other.loads_blocked_native;
    loads_blocked_hli += other.loads_blocked_hli;
    return *this;
  }

  /// Feeds the `licm.*` telemetry counters (docs/observability.md).
  void record_telemetry() const;
};

struct LicmOptions {
  bool use_hli = false;
  const query::HliUnitView* view = nullptr;
  /// Answer the hoisting-safety queries from one conflict matrix per loop
  /// (with the loop's LCDD plane) instead of the scalar view (HliPairs,
  /// hli_pairs.hpp); the answers, and so the hoisting decisions, are
  /// identical either way.
  bool batch_queries = false;
  /// Called for every hoisted load's item with the loop region it left, so
  /// the driver can update the HLI (maintenance move_item_to_region).
  std::function<void(format::ItemId, format::RegionId)> on_load_hoisted;
  /// Independent back-end dependence oracle (PipelineOptions::
  /// irdep_fallback): when set, a store only blocks hoisting if the oracle
  /// also admits a same-iteration or loop-carried conflict, and a call
  /// only blocks if the oracle says it may write the location.  The pass
  /// calls refresh() before each loop it processes (hoisting reorders the
  /// previous loop's instructions, moving prior indices).
  DepOracle* fallback = nullptr;
};

/// Hoists invariants out of every innermost loop of `func`, in place.
LicmStats licm_function(RtlFunction& func, const LicmOptions& options);

}  // namespace hli::backend
