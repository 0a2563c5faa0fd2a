// Software-pipelining potential analysis — the cyclic-scheduling use of
// the LCDD table the paper points at in §3.2.2 ("LCDD information is
// indispensable for a cyclic scheduling algorithm such as software
// pipelining").
//
// For every innermost counted loop this computes the minimum initiation
// interval (MII) a modulo scheduler could achieve:
//   * ResMII — resource bound: ceil(insns / issue_width) and the single
//     memory port, ceil(memory ops / 1);
//   * RecMII — recurrence bound: the smallest II for which the dependence
//     graph (intra-iteration edges plus LOOP-CARRIED edges) has no cycle
//     with positive slack, i.e. max over cycles of
//     ceil(sum(latency) / sum(distance)).
// Loop-carried memory edges come either from the native oracle (every
// conservative conflict becomes a distance-1 arc) or from HLI_GetLCDD
// (real arcs with real distances) — the measured RecMII gap is exactly
// the value of exporting front-end dependence distances.
#pragma once

#include <functional>
#include <vector>

#include "backend/rtl.hpp"
#include "hli/query.hpp"

namespace hli::backend {

struct LoopPipelineInfo {
  format::RegionId region = format::kNoRegion;
  unsigned body_insns = 0;
  unsigned memory_ops = 0;
  unsigned res_mii = 1;
  unsigned rec_mii = 1;
  [[nodiscard]] unsigned mii() const { return std::max(res_mii, rec_mii); }
};

struct SwpOptions {
  bool use_hli = false;
  const query::HliUnitView* view = nullptr;
  unsigned issue_width = 4;
  std::function<unsigned(const Insn&)> latency;  ///< Default: unit latency.
};

/// Analyzes every innermost counted straight-line loop of `func` (the
/// same shape the unroller accepts).  Purely analytic: no code changes.
[[nodiscard]] std::vector<LoopPipelineInfo> analyze_software_pipelining(
    const RtlFunction& func, const SwpOptions& options);

}  // namespace hli::backend
