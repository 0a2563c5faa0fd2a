#include "backend/parexec/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <ratio>
#include <thread>

#include "backend/parexec/pool.hpp"

namespace hli::backend::parexec {

std::vector<Chunk> plan_chunks(std::uint64_t trips, unsigned workers,
                               std::int64_t distance) {
  std::vector<Chunk> chunks;
  if (trips == 0) return chunks;
  if (workers == 0) workers = 1;
  if (distance <= 0) {
    // DOALL: one contiguous chunk per lane, sizes differing by at most
    // one (the first trips % lanes chunks take the extra iteration).
    const std::uint64_t lanes = std::min<std::uint64_t>(trips, workers);
    const std::uint64_t base = trips / lanes;
    const std::uint64_t extra = trips % lanes;
    chunks.reserve(lanes);
    std::uint64_t begin = 0;
    for (std::uint64_t c = 0; c < lanes; ++c) {
      const std::uint64_t end = begin + base + (c < extra ? 1 : 0);
      chunks.push_back({begin, end});
      begin = end;
    }
    return chunks;
  }
  // DOACROSS: each chunk spans at least 2*d so the in-chunk prefix covers
  // the dependence for the tail; ~4 chunks per lane keep the pipeline fed.
  const std::uint64_t size = std::max<std::uint64_t>(
      2 * static_cast<std::uint64_t>(distance), trips / (workers * 4u));
  chunks.reserve((trips + size - 1) / size);
  for (std::uint64_t begin = 0; begin < trips; begin += size) {
    chunks.push_back({begin, std::min(trips, begin + size)});
  }
  return chunks;
}

const Insn* closed_form_compare(const RtlFunction& func,
                                const LoopPlan& plan) {
  if (plan.exit_branch != plan.cond_begin + 1) return nullptr;
  const Insn& cmp = func.insns[plan.cond_begin];
  const Insn& exit_br = func.insns[plan.exit_branch];
  const Reg iv = plan.induction;
  const bool ordered = cmp.op == Opcode::CmpLt || cmp.op == Opcode::CmpLe ||
                       cmp.op == Opcode::CmpGt || cmp.op == Opcode::CmpGe;
  if (!ordered || cmp.is_float || exit_br.op != Opcode::BranchZ ||
      cmp.rd != exit_br.rs1 || cmp.rs1 != iv || cmp.rs2 == iv ||
      cmp.rd == iv || cmp.rd == cmp.rs2) {
    return nullptr;
  }
  return &cmp;
}

std::optional<std::uint64_t> closed_form_trips(Opcode cmp, std::int64_t iv0,
                                               std::int64_t bound,
                                               std::int64_t step) {
  const __int128 first = iv0;
  const __int128 n = bound;
  const __int128 s = step;
  __int128 count = 0;
  switch (cmp) {
    case Opcode::CmpLt:
      if (s <= 0) return std::nullopt;
      count = first < n ? (n - first + s - 1) / s : 0;
      break;
    case Opcode::CmpLe:
      if (s <= 0) return std::nullopt;
      count = first <= n ? (n - first) / s + 1 : 0;
      break;
    case Opcode::CmpGt:
      if (s >= 0) return std::nullopt;
      count = first > n ? (first - n - s - 1) / -s : 0;
      break;
    case Opcode::CmpGe:
      if (s >= 0) return std::nullopt;
      count = first >= n ? (first - n) / -s + 1 : 0;
      break;
    default:
      return std::nullopt;
  }
  // The exit test runs on the IV after `count` steps; serial computes it
  // in int64, so a value outside that range means serial wrapped.
  const __int128 last = first + count * s;
  if (last < INT64_MIN || last > INT64_MAX) return std::nullopt;
  return static_cast<std::uint64_t>(count);
}

SyncCounts structural_sync_counts(const std::vector<Chunk>& chunks,
                                  std::int64_t distance) {
  SyncCounts counts;
  if (distance <= 0) return counts;
  const std::uint64_t d = static_cast<std::uint64_t>(distance);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::uint64_t len = chunks[c].size();
    // Iterations i with i - d >= chunk.begin are ordered after their
    // source by the chunk's own sequential execution: sync elided.
    counts.elided += len > d ? len - d : 0;
    // The first min(d, len) iterations of a non-first chunk depend on an
    // earlier chunk and post-wait on the board.  (Chunk 0's head has no
    // source at all: i - d < 0 is not a dependence.)
    if (c > 0) counts.waits += std::min(d, len);
  }
  return counts;
}

namespace {

[[nodiscard]] std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t out = 0;
  return __builtin_mul_overflow(a, b, &out) ? UINT64_MAX : out;
}

[[nodiscard]] std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t out = 0;
  return __builtin_add_overflow(a, b, &out) ? UINT64_MAX : out;
}

/// The pool's spin window, in ps.
constexpr std::uint64_t kSpinPs =
    std::chrono::duration<std::uint64_t, std::pico>(WorkerPool::kSpin).count();

}  // namespace

CostEstimate predict_dispatch(std::uint64_t trips, std::uint64_t per_iter,
                              unsigned lanes, const std::vector<Chunk>& chunks,
                              std::int64_t distance, const SyncCounts& sync,
                              const PoolState& pool) {
  CostEstimate e;
  e.trips = trips;
  e.per_iter = per_iter;
  e.lanes = lanes;
  e.chunks = chunks.size();
  e.distance = distance;
  e.waits = sync.waits;
  const std::uint64_t iter_ps = sat_mul(per_iter, kInsnPs);
  e.serial_ps = sat_mul(trips, iter_ps);

  // The critical path, in iterations.
  std::uint64_t path = 0;
  if (distance <= 0) {
    for (const Chunk& c : chunks) path = std::max(path, c.size());
  } else if (!chunks.empty()) {
    // Chunk c's head waits for chunk c-1's iteration size - d, so it
    // starts once size - d + 1 of them are done and then keeps pace.
    const auto d = static_cast<std::uint64_t>(distance);
    for (std::size_t c = 0; c + 1 < chunks.size(); ++c) {
      const std::uint64_t size = chunks[c].size();
      path += size > d ? size - d + 1 : 1;
    }
    path += chunks.back().size();
  }
  const std::uint64_t lanes_or_1 = std::max(lanes, 1u);
  path = std::max(path, (trips + lanes_or_1 - 1) / lanes_or_1);

  const std::uint64_t spinning_ps =
      sat_add(sat_add(kDispatchPs, sat_mul(kChunkPs, e.chunks)),
              sat_add(sat_mul(kWaitPs, e.waits), sat_mul(path, iter_ps)));
  const auto parked = [](std::uint64_t idle) {
    return sat_mul(idle, kInsnPs) > kSpinPs;
  };
  const std::uint64_t ready_ps =
      !pool.started ? kStartPs : parked(pool.idle_insns) ? kWakePs : 0;
  e.ready_ps = ready_ps > pool.credit_ps ? ready_ps - pool.credit_ps : 0;
  e.parallel_ps = sat_add(spinning_ps, e.ready_ps);
  e.spinning_win = spinning_ps < e.serial_ps;
  const std::uint64_t won_ps =
      sat_add(spinning_ps, parked(pool.win_idle_insns) ? kWakePs : 0);
  e.forgone_ps = e.serial_ps > won_ps ? e.serial_ps - won_ps : 0;
  e.dispatch = e.parallel_ps < e.serial_ps;
  return e;
}

ProgressBoard::ProgressBoard(const std::vector<Chunk>& chunks)
    : chunks_(chunks),
      progress_(new std::atomic<std::uint64_t>[chunks.size()]),
      fault_(chunks.size()) {
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    progress_[c].store(0, std::memory_order_relaxed);
  }
}

void ProgressBoard::fault(std::size_t chunk) {
  std::size_t seen = fault_.load(std::memory_order_acquire);
  while (chunk < seen &&
         !fault_.compare_exchange_weak(seen, chunk, std::memory_order_acq_rel)) {
  }
}

void ProgressBoard::publish(std::size_t chunk, std::uint64_t completed) {
  progress_[chunk].store(completed, std::memory_order_release);
}

bool ProgressBoard::wait_for_prefix(std::uint64_t target) {
  // Chunk holding `target`, by scan: chunk counts are tiny (a few dozen).
  std::size_t cj = 0;
  while (cj < chunks_.size() && chunks_[cj].end <= target) ++cj;
  if (cj == chunks_.size()) return !aborted();
  const std::uint64_t need_in_cj = target - chunks_[cj].begin + 1;
  for (std::size_t c = 0; c <= cj; ++c) {
    const std::uint64_t need = c == cj ? need_in_cj : chunks_[c].size();
    unsigned spins = 0;
    while (progress_[c].load(std::memory_order_acquire) < need) {
      if (!live(cj)) return false;
      // Brief spin, then yield: the expected wait is one predecessor
      // iteration, but on an oversubscribed machine the predecessor may
      // need this very core.
      if (++spins > 64) {
        std::this_thread::yield();
      }
    }
  }
  return true;
}

}  // namespace hli::backend::parexec
