// Chunked iteration scheduling and the DOACROSS post-wait protocol for
// the parallel loop execution runtime (docs/parallel-execution.md).
//
// Everything here is deliberately free of interpreter state so the
// scheduling and synchronization logic can be unit-tested (and TSan'd)
// in isolation:
//
//  * plan_chunks() — split a trip count into contiguous chunks.  DOALL
//    gets one chunk per lane.  DOACROSS chunks are sized to at least
//    twice the proven dependence distance so that most iterations find
//    their dependence source inside their own chunk and need no
//    synchronization at all (sync elision, after Liao et al.'s
//    one-partition-covers-the-distance observation).
//  * closed_form_trips() — a counted loop's trip count from its IV, step
//    and bound, without running the predicate once per trip.
//  * structural_sync_counts() — the number of post-wait operations a
//    chunking implies, computed from the shape alone.  The runtime
//    reports THESE deterministic counts (not "how often a wait actually
//    blocked", which depends on timing), so parexec.* telemetry is
//    byte-identical across thread counts and machines.
//  * predict_dispatch() — the static cost model that decides whether a
//    chunking is worth dispatching at all: predicted serial against
//    predicted parallel time, from integer constants measured once and
//    checked in and the pool's state kept as instruction counts.  It
//    reads no clock, so every decision (and every parexec.* counter) is
//    a pure function of program and lane count.
//  * ProgressBoard — the post-wait board: per-chunk completed-iteration
//    counters with release/acquire publication.  wait_for_prefix(j)
//    blocks until every iteration <= j has completed, which covers every
//    carried dependence of distance >= d when called with j = i - d.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "backend/rtl.hpp"

namespace hli::backend::parexec {

/// Contiguous iteration range [begin, end).
struct Chunk {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t size() const { return end - begin; }
};

/// Splits `trips` iterations into chunks for `workers` lanes.  DOALL
/// (`distance` == 0) gets min(trips, workers) chunks whose sizes differ
/// by at most one: every extra chunk would only add a hand-off and a
/// register-file copy, since DOALL iterations never wait on each other.
/// DOACROSS (`distance` >= 1) enforces a chunk size of at least
/// 2*distance so consecutive chunks cover the dependence and the
/// cross-chunk wait count stays at min(d, chunk) per boundary.
[[nodiscard]] std::vector<Chunk> plan_chunks(std::uint64_t trips,
                                             unsigned workers,
                                             std::int64_t distance);

/// The compare of a planned loop whose exit predicate is one integer
/// compare of the IV against a register the predicate does not write
/// (`iv < n`, `<=`, `>`, `>=`), exited by BranchZ: the shape both
/// front-ends emit for a counted loop.  Null for any other predicate.
[[nodiscard]] const Insn* closed_form_compare(const RtlFunction& func,
                                              const LoopPlan& plan);

/// The trip count of a loop whose IV starts at `iv0`, steps by `step`
/// and continues while `iv <cmp> bound`, for a compare
/// closed_form_compare() returned.  Nullopt when the step moves away
/// from the exit, or when the IV would wrap before reaching it (serial
/// wraps it; the runtime then runs the predicate slice instead).
[[nodiscard]] std::optional<std::uint64_t> closed_form_trips(
    Opcode cmp, std::int64_t iv0, std::int64_t bound, std::int64_t step);

/// Deterministic post-wait accounting for a chunking under dependence
/// distance `d`: `waits` counts iterations whose dependence source lies
/// in an earlier chunk (a real cross-chunk post-wait), `elided` those
/// whose source lies in their own chunk (sequential execution inside the
/// chunk already orders them — the sync is provably unnecessary).
struct SyncCounts {
  std::uint64_t waits = 0;
  std::uint64_t elided = 0;
};
[[nodiscard]] SyncCounts structural_sync_counts(
    const std::vector<Chunk>& chunks, std::int64_t distance);

/// Cost-model constants, in picoseconds (docs/parallel-execution.md,
/// "Cost model").  Measured with bench_parexec's calibration rows, the
/// median of three runs, on the 4-core reproduction host (a shared x86-64
/// Xeon VM, `nproc` = 4), GCC 12, RelWithDebInfo.  Re-measure them when
/// the interpreter or the pool changes.
inline constexpr std::uint64_t kInsnPs = 3'200;  ///< c_insn: one instruction.
/// c_dispatch: the generation hand-off to the pool, the join and the
/// serial-state replay, for one dispatch.
inline constexpr std::uint64_t kDispatchPs = 5'900'000;
/// c_chunk: one chunk's register-file copy and claim.  It measured within
/// 0.4 us of zero in every run, below the calibration's resolution, so
/// its cost is folded into c_dispatch and c_wait.
inline constexpr std::uint64_t kChunkPs = 0;
/// c_wait: one structural cross-chunk post-wait (the cache-line
/// hand-off from the producing lane).
inline constexpr std::uint64_t kWaitPs = 530'000;
/// c_wake: waking workers that have parked, paid by a dispatch that
/// follows more serial work than the pool's spin window
/// (WorkerPool::kSpin).
inline constexpr std::uint64_t kWakePs = 29'000'000;
/// c_start: spawning the pool's threads, paid by a run's first dispatch.
inline constexpr std::uint64_t kStartPs = 89'000'000;

/// The worker pool as the model sees it.  The interpreter keeps this
/// from instruction counts and its own earlier decisions, in place of a
/// clock, so it is as deterministic as the decisions themselves.
struct PoolState {
  /// The run has dispatched before, so the pool's threads exist.
  bool started = false;
  /// Serial instructions since the pool last ran a loop, or since the
  /// run began.  Past the spin window (WorkerPool::kSpin at c_insn per
  /// instruction) its workers have parked.
  std::uint64_t idle_insns = 0;
  /// The same for a pool that had run every loop spinning workers win
  /// on (CostEstimate::spinning_win), dispatched or not.
  std::uint64_t win_idle_insns = 0;
  /// The gains passed up since the pool last ran a loop: the sum of
  /// forgone_ps over the declines in between.
  std::uint64_t credit_ps = 0;
};

/// One dispatch decision: the model's inputs, both predictions and the
/// verdict.  Times are integer picoseconds (saturating), so a decision
/// never depends on the host's floating-point contraction.
struct CostEstimate {
  std::uint64_t trips = 0;
  std::uint64_t per_iter = 0;  ///< Serial instructions per iteration.
  unsigned lanes = 0;
  std::uint64_t chunks = 0;
  std::int64_t distance = 0;   ///< 0 for DOALL.
  std::uint64_t waits = 0;     ///< Structural cross-chunk post-waits.
  /// Getting the workers running: c_start before the pool has started,
  /// c_wake once they have parked, 0 while they spin; less the credit.
  std::uint64_t ready_ps = 0;
  std::uint64_t serial_ps = 0;
  std::uint64_t parallel_ps = 0;  ///< Includes ready_ps.
  /// The pool would win here with its workers spinning.
  bool spinning_win = false;
  /// What a pool that had run every loop it wins on would gain here
  /// (c_wake included when even that pool would have parked); 0 when it
  /// would lose.
  std::uint64_t forgone_ps = 0;
  bool dispatch = false;       ///< parallel_ps < serial_ps.
};

/// Predicts serial time `trips * per_iter * c_insn` and parallel time
/// `c_dispatch + c_chunk * chunks + c_wait * waits` plus the critical
/// path in iterations times `per_iter * c_insn`.  The DOALL critical path
/// is the largest chunk; the DOACROSS(d) path is the post-wait chain, in
/// which chunk c starts once chunk c-1 has finished `size - d + 1`
/// iterations.  For d = 1 that chain is the whole trip count, so every
/// DOACROSS(1) chunking declines by the arithmetic.  No path is shorter
/// than trips / lanes iterations, so one lane always declines.
///
/// Getting the workers running (c_start, c_wake) is paid once for a run
/// of dispatches that follows.  Charged in full to whichever loop comes
/// first, it would decline a loop that then runs a thousand times back
/// to back for want of the first.  So it is charged less
/// `pool.credit_ps`, the gains passed up since the pool last ran: the
/// pool starts, or wakes, once the gains it has missed reach what that
/// costs (the rent-or-buy rule), and a run whose loops never would pays
/// for no threads.
[[nodiscard]] CostEstimate predict_dispatch(std::uint64_t trips,
                                            std::uint64_t per_iter,
                                            unsigned lanes,
                                            const std::vector<Chunk>& chunks,
                                            std::int64_t distance,
                                            const SyncCounts& sync,
                                            const PoolState& pool);

class ProgressBoard {
 public:
  explicit ProgressBoard(const std::vector<Chunk>& chunks);

  /// Publishes that the first `completed` iterations of `chunk` are done
  /// (release: every store those iterations made is visible to a waiter
  /// that observes the count).
  void publish(std::size_t chunk, std::uint64_t completed);

  /// Blocks until every iteration <= `target` has completed in every
  /// chunk.  Returns false instead when that can no longer happen: after
  /// abort(), or once `target`'s chunk or an earlier one has faulted.
  /// `target` is a global iteration index; callers pass i - d.
  [[nodiscard]] bool wait_for_prefix(std::uint64_t target);

  /// Wakes every waiter into failure (the instruction budget tripped, or
  /// a lane threw something other than a trap); waits return false
  /// instead of deadlocking.
  void abort() { aborted_.store(true, std::memory_order_release); }
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Records that `chunk` trapped.  Earlier chunks still run to the end:
  /// a serial run reaches the trap only after all of their iterations.
  void fault(std::size_t chunk);
  /// Whether `chunk` can still matter: no abort and no fault in it or in
  /// an earlier chunk.
  [[nodiscard]] bool live(std::size_t chunk) const {
    return !aborted() && chunk < fault_.load(std::memory_order_acquire);
  }

 private:
  std::vector<Chunk> chunks_;
  /// Completed-iteration count per chunk.  unique_ptr array: atomics are
  /// neither copyable nor movable, so a vector cannot hold them directly.
  std::unique_ptr<std::atomic<std::uint64_t>[]> progress_;
  std::atomic<bool> aborted_{false};
  /// The earliest chunk that faulted (chunks.size() while none has).
  std::atomic<std::size_t> fault_;
};

}  // namespace hli::backend::parexec
