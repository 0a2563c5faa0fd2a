#include "backend/unroll.hpp"

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "support/telemetry.hpp"

namespace hli::backend {

namespace {
const telemetry::Counter c_loops_unrolled =
    telemetry::counter("unroll.loops_unrolled");
const telemetry::Counter c_loops_rejected =
    telemetry::counter("unroll.loops_rejected");
const telemetry::Counter c_copies_made =
    telemetry::counter("unroll.copies_made");
}  // namespace

void UnrollStats::record_telemetry() const {
  c_loops_unrolled.add(loops_unrolled);
  c_loops_rejected.add(loops_rejected);
  c_copies_made.add(copies_made);
}

namespace {

/// The counted loop at `span` when unroll can copy its body: the skeleton
/// lowering emits, a known trip count, a BranchZ exit and a condition
/// without calls.
std::optional<CountedLoop> unrollable(const RtlFunction& func,
                                      const LoopSpan& span) {
  const Insn& note = func.insns[span.beg];
  if (!note.trip_count) return std::nullopt;
  const std::optional<CountedLoop> loop = match_counted_loop(func, span);
  if (!loop || func.insns[loop->exit_branch].op != Opcode::BranchZ) {
    return std::nullopt;
  }
  for (std::size_t p = loop->top + 1; p < loop->exit_branch; ++p) {
    if (func.insns[p].op == Opcode::Call) return std::nullopt;
  }
  return loop;
}

/// Registers read before they are written within the body+step segment
/// (loop-carried values: accumulators, the induction variable).  These
/// keep their names across copies; everything else defined in the segment
/// is renamed per copy.
std::set<Reg> upward_exposed(const RtlFunction& func, std::size_t begin,
                             std::size_t end) {
  std::set<Reg> exposed;
  std::set<Reg> defined;
  for (std::size_t i = begin; i < end; ++i) {
    const Insn& insn = func.insns[i];
    for_each_read(insn, [&](Reg r) {
      if (!defined.contains(r)) exposed.insert(r);
    });
    const Reg w = def_of(insn);
    if (w != kNoReg) defined.insert(w);
  }
  return exposed;
}

}  // namespace

UnrollStats unroll_function(RtlFunction& func, const UnrollOptions& options) {
  UnrollStats stats;
  if (options.factor < 2) return stats;

  bool changed = true;
  std::set<format::RegionId> done;
  while (changed) {
    changed = false;
    for (const LoopSpan& span : loop_spans(func)) {
      const Insn& note = func.insns[span.beg];
      const format::RegionId region = note.loop_region;
      if (done.contains(region)) continue;
      done.insert(region);

      const std::optional<CountedLoop> shape = unrollable(func, span);
      if (!shape || *note.trip_count % options.factor != 0 ||
          *note.trip_count == 0) {
        ++stats.loops_rejected;
        continue;
      }

      // HLI maintenance first (it can refuse, e.g. non-innermost region).
      maintain::UnrollUpdate update;
      if (options.entry != nullptr && region != format::kNoRegion) {
        update = maintain::unroll_loop(*options.entry, region, options.factor);
        if (!update.ok) {
          ++stats.loops_rejected;
          continue;
        }
      }

      // Build the unrolled body: copies 1..factor-1 of [exit_branch + 1,
      // backedge), with non-carried registers renamed and HLI items
      // re-stamped.
      const std::size_t seg_begin = shape->exit_branch + 1;
      const std::size_t seg_end = shape->backedge;
      const std::set<Reg> carried = upward_exposed(func, seg_begin, seg_end);

      // Registers read anywhere outside the copied segment must also keep
      // their names: renaming a live-out definition leaves the post-loop
      // read seeing the first copy's (stale) value instead of the last
      // iteration's.  Found by differential fuzzing (seed 3334): a loop
      // whose body only overwrites an accumulator read after the loop has
      // no upward-exposed use of it, so `carried` alone misses it.
      std::set<Reg> live_outside;
      for (std::size_t k = 0; k < func.insns.size(); ++k) {
        if (k >= seg_begin && k < seg_end) continue;
        for_each_read(func.insns[k], [&](Reg r) { live_outside.insert(r); });
      }

      std::vector<Insn> expanded;
      for (std::size_t k = seg_begin; k < seg_end; ++k) {
        expanded.push_back(func.insns[k]);
      }
      for (unsigned copy = 1; copy < options.factor; ++copy) {
        std::map<Reg, Reg> rename;
        for (std::size_t k = seg_begin; k < seg_end; ++k) {
          Insn insn = func.insns[k];
          if (insn.op == Opcode::Label) continue;  // Drop inner labels.
          // Rename uses first (pre-rename values), then the definition.
          auto rename_use = [&](Reg& r) {
            const auto it = rename.find(r);
            if (it != rename.end()) r = it->second;
          };
          if (insn.rs1 != kNoReg) rename_use(insn.rs1);
          if (insn.rs2 != kNoReg) rename_use(insn.rs2);
          for (Reg& r : insn.args) rename_use(r);
          const Reg w = def_of(insn);
          if (w != kNoReg && !carried.contains(w) &&
              !live_outside.contains(w)) {
            const Reg fresh = func.fresh_reg();
            rename[w] = fresh;
            insn.rd = fresh;
          }
          // Re-stamp HLI items with the copy's IDs.
          if (options.entry != nullptr) {
            if (is_memory_op(insn.op) && insn.mem.hli_item != format::kNoItem) {
              const auto it = update.item_copies.find(insn.mem.hli_item);
              if (it != update.item_copies.end() && copy < it->second.size()) {
                insn.mem.hli_item = it->second[copy];
              } else {
                insn.mem.hli_item = format::kNoItem;
              }
            } else if (insn.op == Opcode::Call &&
                       insn.hli_item != format::kNoItem) {
              // Calls are cloned without per-copy effect entries: drop the
              // item so queries stay conservative for the clone.
              insn.hli_item = format::kNoItem;
            }
          } else if (is_memory_op(insn.op)) {
            insn.mem.hli_item = format::kNoItem;
          }
          expanded.push_back(std::move(insn));
        }
      }

      // Splice: [.. exit branch] expanded [backedge ..].
      std::vector<Insn> rebuilt;
      rebuilt.reserve(func.insns.size() + expanded.size());
      rebuilt.insert(rebuilt.end(), func.insns.begin(),
                     func.insns.begin() + static_cast<std::ptrdiff_t>(seg_begin));
      rebuilt.insert(rebuilt.end(), expanded.begin(), expanded.end());
      rebuilt.insert(rebuilt.end(),
                     func.insns.begin() + static_cast<std::ptrdiff_t>(seg_end),
                     func.insns.end());
      func.insns = std::move(rebuilt);

      ++stats.loops_unrolled;
      stats.copies_made += options.factor - 1;
      changed = true;
      break;  // Indices shifted: rescan.
    }
  }
  return stats;
}

}  // namespace hli::backend
