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
//  * structural_sync_counts() — the number of post-wait operations a
//    chunking implies, computed from the shape alone.  The runtime
//    reports THESE deterministic counts (not "how often a wait actually
//    blocked", which depends on timing), so parexec.* telemetry is
//    byte-identical across thread counts and machines.
//  * ProgressBoard — the post-wait board: per-chunk completed-iteration
//    counters with release/acquire publication.  wait_for_prefix(j)
//    blocks until every iteration <= j has completed, which covers every
//    carried dependence of distance >= d when called with j = i - d.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

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

class ProgressBoard {
 public:
  explicit ProgressBoard(const std::vector<Chunk>& chunks);

  /// Publishes that the first `completed` iterations of `chunk` are done
  /// (release: every store those iterations made is visible to a waiter
  /// that observes the count).
  void publish(std::size_t chunk, std::uint64_t completed);

  /// Blocks until every iteration <= `target` has completed in every
  /// chunk, or abort() was called.  Returns false on abort.  `target` is
  /// a global iteration index; callers pass i - d.
  [[nodiscard]] bool wait_for_prefix(std::uint64_t target);

  /// Wakes every waiter into failure (a lane faulted or the instruction
  /// budget tripped); waits return false instead of deadlocking.
  void abort() { aborted_.store(true, std::memory_order_release); }
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

 private:
  std::vector<Chunk> chunks_;
  /// Completed-iteration count per chunk.  unique_ptr array: atomics are
  /// neither copyable nor movable, so a vector cannot hold them directly.
  std::unique_ptr<std::atomic<std::uint64_t>[]> progress_;
  std::atomic<bool> aborted_{false};
};

}  // namespace hli::backend::parexec
