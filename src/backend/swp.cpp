#include "backend/swp.hpp"

#include <algorithm>
#include <set>

#include "backend/gcc_alias.hpp"
#include "backend/hli_pairs.hpp"

namespace hli::backend {

namespace {

struct Edge {
  std::size_t from = 0;
  std::size_t to = 0;
  unsigned latency = 1;
  unsigned distance = 0;  ///< Iterations; 0 = intra-iteration.
};

struct LoopBody {
  format::RegionId region = format::kNoRegion;
  std::size_t begin = 0;  ///< First insn after the LoopBeg note.
  std::size_t end = 0;    ///< Index of the LoopEnd note.
  std::vector<const Insn*> insns;  ///< Schedulable body instructions.
};

class LoopAnalyzer {
 public:
  LoopAnalyzer(const LoopBody& body, const SwpOptions& options,
               HliPairs& pairs)
      : body_(body), options_(options), pairs_(pairs) {}

  LoopPipelineInfo run() {
    LoopPipelineInfo info;
    info.region = body_.region;
    info.body_insns = static_cast<unsigned>(body_.insns.size());
    for (const Insn* insn : body_.insns) {
      if (is_memory_op(insn->op)) ++info.memory_ops;
    }
    const unsigned width = std::max(1u, options_.issue_width);
    info.res_mii = std::max((info.body_insns + width - 1) / width,
                            info.memory_ops);  // One memory port.
    build_edges();
    info.rec_mii = recurrence_mii();
    return info;
  }

 private:
  [[nodiscard]] unsigned latency_of(const Insn& insn) const {
    return options_.latency ? std::max(1u, options_.latency(insn)) : 1u;
  }

  void add_edge(std::size_t from, std::size_t to, unsigned latency,
                unsigned distance) {
    edges_.push_back({from, to, latency, distance});
  }

  void build_edges() {
    const std::size_t n = body_.insns.size();

    // Register dependences, intra- and cross-iteration.  The last writer
    // of each register feeds readers in the NEXT iteration too (accumulators
    // and induction updates): a distance-1 arc.
    for (std::size_t j = 0; j < n; ++j) {
      for_each_read(*body_.insns[j], [&](Reg r) {
        // Nearest earlier writer in this iteration.
        bool found = false;
        for (std::size_t i = j; i-- > 0;) {
          if (def_of(*body_.insns[i]) == r) {
            add_edge(i, j, latency_of(*body_.insns[i]), 0);
            found = true;
            break;
          }
        }
        if (!found) {
          // Value flows in from the previous iteration if anyone writes it.
          for (std::size_t i = n; i-- > j + 1;) {
            if (def_of(*body_.insns[i]) == r) {
              add_edge(i, j, latency_of(*body_.insns[i]), 1);
              break;
            }
          }
        }
      });
    }

    // Memory dependences.
    for (std::size_t i = 0; i < n; ++i) {
      const Insn& bi = *body_.insns[i];
      if (!is_memory_op(bi.op)) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const Insn& bj = *body_.insns[j];
        if (!is_memory_op(bj.op)) continue;
        if (bi.op != Opcode::Store && bj.op != Opcode::Store) continue;

        if (options_.use_hli && options_.view != nullptr &&
            bi.mem.hli_item != format::kNoItem &&
            bj.mem.hli_item != format::kNoItem) {
          const HliPairs::MemPair pair =
              pairs_.mem_pair(bi.mem.hli_item, bj.mem.hli_item);
          // Intra-iteration conflict in program order.
          if (j > i && pair.conflict()) add_edge(i, j, latency_of(bi), 0);
          // Loop-carried arcs with real distances from the LCDD table; the
          // emptiness answer skips the table walk for the (typical) pairs
          // with no carried dependence at all.
          if (pair.loop_carried()) {
            for (const auto& dep : options_.view->get_lcdd(
                     body_.region, bi.mem.hli_item, bj.mem.hli_item)) {
              if (dep.forward) {
                add_edge(i, j, latency_of(bi),
                         static_cast<unsigned>(
                             std::max<std::int64_t>(1, dep.distance.value_or(1))));
              }
            }
          }
        } else {
          // Native: any conservative conflict is both an intra-iteration
          // arc (program order) and a distance-1 carried arc.
          if (gcc_may_conflict(bi.mem, bj.mem)) {
            if (j > i) add_edge(i, j, latency_of(bi), 0);
            add_edge(i, j, latency_of(bi), 1);
          }
        }
      }
    }
  }

  /// Is there a cycle whose slack is positive at initiation interval II,
  /// i.e. sum(latency) > II * sum(distance)?  Longest-path relaxation with
  /// weights (latency - II*distance); a further relaxation after n rounds
  /// means a positive cycle exists.
  [[nodiscard]] bool infeasible(unsigned ii) const {
    const std::size_t n = body_.insns.size();
    std::vector<double> dist(n, 0.0);
    for (std::size_t round = 0; round <= n; ++round) {
      bool changed = false;
      for (const Edge& e : edges_) {
        const double w = static_cast<double>(e.latency) -
                         static_cast<double>(ii) * e.distance;
        if (dist[e.from] + w > dist[e.to] + 1e-9) {
          dist[e.to] = dist[e.from] + w;
          changed = true;
          if (round == n) return true;  // Still relaxing: positive cycle.
        }
      }
      if (!changed) return false;
    }
    return false;
  }

  [[nodiscard]] unsigned recurrence_mii() const {
    unsigned lo = 1;
    unsigned hi = 1;
    for (const Edge& e : edges_) hi += e.latency;
    // Binary search the smallest feasible II.
    while (lo < hi) {
      const unsigned mid = lo + (hi - lo) / 2;
      if (infeasible(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  const LoopBody& body_;
  const SwpOptions& options_;
  HliPairs& pairs_;
  std::vector<Edge> edges_;
};

}  // namespace

std::vector<LoopPipelineInfo> analyze_software_pipelining(
    const RtlFunction& func, const SwpOptions& options) {
  std::vector<LoopPipelineInfo> out;
  HliPairs pairs(options.use_hli ? options.view : nullptr,
                 true);  // Arena shared across the loops.
  for (const LoopSpan& span : loop_spans(func)) {
    if (!span.innermost) continue;
    // Labels, branches and notes do not occupy issue slots in the modulo
    // schedule's kernel.
    LoopBody body;
    body.region = func.insns[span.beg].loop_region;
    body.begin = span.beg + 1;
    body.end = span.end;
    for (std::size_t k = body.begin; k < body.end; ++k) {
      if (!is_control(func.insns[k].op)) body.insns.push_back(&func.insns[k]);
    }
    if (body.insns.empty()) continue;
    pairs.prepare(func.insns, body.begin, body.end, body.region);
    LoopAnalyzer analyzer(body, options, pairs);
    out.push_back(analyzer.run());
  }
  return out;
}

}  // namespace hli::backend
