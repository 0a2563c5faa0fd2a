// The parallel execution planner: proves loops of the FINAL instruction
// stream safe for multi-threaded execution and annotates them with
// LoopPlans (plan.hpp) the interpreter dispatches at exec_threads > 1.
//
// Dependence evidence is irdep::loop_verdict (analysis/irdep/
// classify.hpp), the same verdict the loop classifier's columns are
// composed from, recomputed on the final stream.  Its combined memory
// verdict unions the independent RTL-level analyzer's carried() answers
// with — when an HLI unit is available — the HLI equivalence-class /
// LCDD tables, each store pair taking the STRONGER distance bound, so
// either source alone can prove a loop (planning works in no-HLI
// irdep_fallback builds).  A SERIAL combined verdict rejects the loop
// with its may-dep reason; otherwise its distance is the plan's.
//
// Planning is strictly more demanding than classification: beyond "no
// short-distance carried dependence" the loop must be executable out of
// order by lanes that only share the memory image —
//
//   * canonical innermost shape (form.hpp re-verified post-transforms);
//   * predicate and step regions of pure register ops, so the runtime
//     can trip-count ahead and replay the final rounds;
//   * no register carries a value between iterations except the IV and
//     recognized integer reductions (privatized per chunk);
//   * body calls provably memoryless and IO-free;
//   * no float accumulator (combining partials would reassociate).
//
// Plans never change the instruction stream; a loop the runtime declines
// simply executes serially.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/irdep/classify.hpp"
#include "analysis/irdep/refmod.hpp"
#include "backend/rtl.hpp"

namespace hli::backend::parexec {

struct PlanOptions {
  /// HLI tables for the unit (nullable: irdep facts alone then).
  const query::HliUnitView* view = nullptr;
  /// Classifier reports to annotate with the plan column (nullable);
  /// matched by region id / source line since instruction positions
  /// shift between classification time and plan time.
  std::vector<irdep::LoopReport>* reports = nullptr;
};

/// Fills `func.parexec` with every provable plan.  Idempotent: clears
/// previous plans first.  The parexec.plans_* counters record how many
/// loops were planned DOALL or DOACROSS and how many were rejected.
void parallelize_function(const irdep::ProgramDepInfo& prog, RtlFunction& func,
                          const PlanOptions& options = {});

}  // namespace hli::backend::parexec
