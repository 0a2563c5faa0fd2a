// DOALL/DOACROSS/Serial loop classification on top of the independent
// dependence analyzer, with an optional HLI-refined second column.
//
// Claims are sound in the direction the differential fuzzer checks:
//   * Doall      — no loop-carried dependence exists (beyond the
//                  induction register of a verified canonical loop).
//   * Doacross d — every carried dependence has distance >= d (d >= 1,
//                  so Doacross(1) is always a safe statement).
//   * Serial     — no parallelism claim.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/irdep/analyzer.hpp"
#include "hli/query.hpp"

namespace hli::irdep {

enum class LoopClass : std::uint8_t { Doall, Doacross, Serial };

[[nodiscard]] const char* to_string(LoopClass c);

/// Classification of one loop under irdep facts alone and under
/// irdep united with the HLI tables (equal when no view was supplied).
struct LoopReport {
  std::string function;
  std::uint32_t loop_beg = 0;  ///< LoopBeg insn position at classify time.
  format::RegionId region = format::kNoRegion;
  std::uint32_t line = 0;
  bool innermost = false;

  LoopClass irdep_class = LoopClass::Serial;
  std::int64_t irdep_distance = 0;  ///< Min distance for Doacross.
  std::string irdep_reason;         ///< Why not Doall (empty for Doall).

  LoopClass combined_class = LoopClass::Serial;
  std::int64_t combined_distance = 0;
  std::string combined_reason;

  /// Execution-plan column, filled by backend::parexec::parallelize_function
  /// when the pipeline runs with exec_threads > 1: whether the loop carries
  /// a runtime plan, and why not when it doesn't.  The planner re-proves
  /// everything on the final instruction stream, so a classified DOALL can
  /// still be unplanned (e.g. a float accumulator blocks privatization).
  bool planned = false;
  LoopClass plan_class = LoopClass::Serial;
  std::int64_t plan_distance = 0;
  std::string plan_reason;
};

/// HLI's loop-carried answer for one memory-op pair w.r.t. `region`.
/// Only may_conflict()==None is an independence proof; Definite LCDD
/// entries with distances refine the distance set (see classify.cpp for
/// the soundness argument).  loop_verdict unions these facts with the
/// analyzer's own carried() answers.
struct HliCarried {
  bool answered = false;  ///< Items mapped and region known.
  bool none = false;      ///< Provably no dependence (disjoint classes).
  bool distance_known = false;
  std::int64_t min_distance = 0;
};

[[nodiscard]] HliCarried hli_carried(const query::HliUnitView& view,
                                     format::RegionId region,
                                     format::ItemId a, format::ItemId b);

/// What the store-involving memory pairs of a loop allow under one fact
/// source: DOALL (no carried dependence), DOACROSS at the minimum carried
/// distance, or SERIAL (some pair has no distance bound).
struct MemoryVerdict {
  LoopClass cls = LoopClass::Doall;
  std::int64_t distance = 0;  ///< Min carried distance (Doacross only).
  /// The first may-dep pair when SERIAL, else the first carried pair
  /// ("may-dep:lineA~lineB" / "carried:lineA~lineB"; empty for DOALL).
  std::string reason;
};

/// A register both defined and read inside a loop whose value can flow
/// from one iteration into the next.
struct CarriedReg {
  backend::Reg reg = backend::kNoReg;
  std::uint32_t first_def = 0;   ///< Position of its first in-loop def.
  std::uint32_t first_read = 0;  ///< Position of its first in-loop read.
  std::uint32_t defs = 0;
  std::uint32_t reads = 0;
};

/// The loop-independence evidence of one innermost loop, the one place
/// the analyzer's carried() answers meet the HLI LCDD table.  The loop
/// classifier composes its two columns from it; the parexec planner
/// plans from the combined memory verdict and the carried registers.
struct LoopVerdict {
  MemoryVerdict irdep;     ///< Analyzer facts alone.
  MemoryVerdict combined;  ///< Analyzer united with HLI (== irdep w/o view).
  /// Ascending by register.  A canonical loop exempts its induction
  /// register (privatized by any parallelizing transform) and every
  /// register defined before it is first read (position order is
  /// execution order over one canonical iteration).
  std::vector<CarriedReg> carried_regs;
  /// Position of the first call to a function that is not provably
  /// memoryless and IO-free; nullopt when every call is pure.
  std::optional<std::uint32_t> impure_call;
};

/// Collects the verdict for `loop` of `fdi`'s function.  `view`
/// (nullable) supplies the HLI tables for the combined column; each
/// store-involving pair then takes the larger of the two distance
/// bounds, since both are sound lower bounds.
[[nodiscard]] LoopVerdict loop_verdict(FunctionDepInfo& fdi,
                                       const LoopShape& loop,
                                       const query::HliUnitView* view);

/// Classifies every loop of `func`.  `view` (nullable) supplies the HLI
/// tables for the combined column; without it the columns are equal.
[[nodiscard]] std::vector<LoopReport> classify_function(
    const ProgramDepInfo& prog, const backend::RtlFunction& func,
    const query::HliUnitView* view);

/// Fixed-width table of the reports (one line per loop).
[[nodiscard]] std::string render_loop_table(
    const std::vector<LoopReport>& reports);

/// JSON array of the reports (stable key order, one object per loop).
[[nodiscard]] std::string render_loop_json(
    const std::vector<LoopReport>& reports);

}  // namespace hli::irdep
