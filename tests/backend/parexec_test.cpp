// Parallel loop execution runtime tests: the worker pool, the chunk
// scheduler and post-wait accounting in isolation, then end-to-end
// determinism — a compiled program run on N lanes must produce the SAME
// RunResult as serial, dynamic_insns included, whether the loop is
// DOALL, a recognized reduction, or DOACROSS(d) under the post-wait
// protocol.  Budget trips and faults inside parallel chunks must also
// surface exactly like serial ones.  The cost model that decides whether
// a chunking is dispatched at all is tested on its own, beside the
// chunk planner.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <ratio>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/interp.hpp"
#include "backend/parexec/pool.hpp"
#include "backend/parexec/runtime.hpp"
#include "driver/pipeline.hpp"

namespace hli::backend::parexec {
namespace {

// --- Pool ---------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryLaneIncludingCaller) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](unsigned lane) { hits[lane].fetch_add(1); });
  for (unsigned lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(hits[lane].load(), 1) << "lane " << lane;
  }
}

TEST(WorkerPoolTest, RunIsReusableAcrossGenerations) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 16; ++round) {
    pool.run([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 16 * 3);
}

TEST(WorkerPoolTest, FirstJobExceptionRethrownAfterJoin) {
  WorkerPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.run([&](unsigned lane) {
      if (lane == 2) throw std::runtime_error("lane 2 faulted");
      completed.fetch_add(1);
    });
    FAIL() << "expected the job exception to be rethrown";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("lane 2 faulted"),
              std::string::npos);
  }
  // run() is a barrier even on error: the healthy lanes all finished.
  EXPECT_EQ(completed.load(), 3);
}

TEST(WorkerPoolTest, BackToBackGenerationsRunEveryLaneOnce) {
  // Tiny jobs back to back keep the workers inside their spin window, so
  // this drives the generation hand-off rather than the parked wake-up.
  constexpr unsigned kLanes = 4;
  constexpr int kGenerations = 20000;
  WorkerPool pool(kLanes);
  std::vector<std::atomic<int>> hits(kLanes);
  int rethrown = 0;
  for (int gen = 0; gen < kGenerations; ++gen) {
    const bool faults = gen % 97 == 0;
    try {
      pool.run([&](unsigned lane) {
        hits[lane].fetch_add(1, std::memory_order_relaxed);
        if (faults && lane == static_cast<unsigned>(gen) % kLanes) {
          throw std::runtime_error("fault in generation " +
                                   std::to_string(gen));
        }
      });
      ASSERT_FALSE(faults) << "generation " << gen << " did not rethrow";
    } catch (const std::runtime_error& e) {
      ASSERT_TRUE(faults) << e.what();
      EXPECT_EQ(std::string(e.what()),
                "fault in generation " + std::to_string(gen));
      ++rethrown;
    }
    // run() is a barrier: every lane ran this generation exactly once.
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      ASSERT_EQ(hits[lane].load(std::memory_order_relaxed), gen + 1)
          << "lane " << lane << ", generation " << gen;
    }
  }
  EXPECT_EQ(rethrown, (kGenerations + 96) / 97);
}

TEST(WorkerPoolTest, SingleLanePoolRunsInline) {
  WorkerPool pool(1);
  int hits = 0;
  pool.run([&](unsigned lane) {
    EXPECT_EQ(lane, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

// --- Chunk scheduling ---------------------------------------------------

std::uint64_t covered(const std::vector<Chunk>& chunks) {
  std::uint64_t total = 0;
  std::uint64_t expect_begin = 0;
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.begin, expect_begin) << "chunks must tile [0, trips)";
    EXPECT_LT(c.begin, c.end);
    expect_begin = c.end;
    total += c.size();
  }
  return total;
}

TEST(PlanChunksTest, DoallGivesEachLaneOneBalancedChunk) {
  for (std::uint64_t trips = 1; trips <= 1000; ++trips) {
    for (unsigned lanes = 1; lanes <= 8; ++lanes) {
      const std::vector<Chunk> chunks = plan_chunks(trips, lanes, 0);
      ASSERT_EQ(chunks.size(), std::min<std::uint64_t>(trips, lanes))
          << trips << " trips, " << lanes << " lanes";
      ASSERT_EQ(covered(chunks), trips);
      std::uint64_t smallest = trips;
      std::uint64_t largest = 0;
      for (const Chunk& c : chunks) {
        smallest = std::min(smallest, c.size());
        largest = std::max(largest, c.size());
      }
      ASSERT_LE(largest - smallest, 1u)
          << trips << " trips, " << lanes << " lanes";
    }
  }
}

TEST(PlanChunksTest, TinyTripCountsStillTile) {
  for (std::uint64_t trips : {1ull, 2ull, 3ull, 7ull}) {
    const std::vector<Chunk> chunks = plan_chunks(trips, 8, 0);
    EXPECT_EQ(covered(chunks), trips) << "trips " << trips;
  }
}

TEST(PlanChunksTest, DoacrossChunksCoverTwiceTheDistance) {
  const std::int64_t d = 5;
  const std::vector<Chunk> chunks = plan_chunks(400, 4, d);
  EXPECT_EQ(covered(chunks), 400u);
  // Every chunk but possibly the last reaches 2d, so most iterations
  // find their dependence source inside their own chunk.
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size(), static_cast<std::uint64_t>(2 * d));
  }
}

TEST(PlanChunksTest, DeterministicForSameInputs) {
  const std::vector<Chunk> a = plan_chunks(12345, 8, 3);
  const std::vector<Chunk> b = plan_chunks(12345, 8, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

// --- Closed-form trip counts -------------------------------------------

/// The iterations a serial `for (iv = iv0; iv <cmp> bound; iv += step)`
/// runs, or -1 when it has not exited after `cap` of them.
std::int64_t enumerate_trips(Opcode cmp, std::int64_t iv0, std::int64_t bound,
                             std::int64_t step, std::int64_t cap = 1000) {
  std::int64_t trips = 0;
  for (std::int64_t iv = iv0; trips <= cap; iv += step, ++trips) {
    const bool go = cmp == Opcode::CmpLt   ? iv < bound
                    : cmp == Opcode::CmpLe ? iv <= bound
                    : cmp == Opcode::CmpGt ? iv > bound
                                           : iv >= bound;
    if (!go) return trips;
  }
  return -1;
}

TEST(ClosedFormTripsTest, MatchesEnumerationForEveryCompare) {
  for (Opcode cmp :
       {Opcode::CmpLt, Opcode::CmpLe, Opcode::CmpGt, Opcode::CmpGe}) {
    const bool up = cmp == Opcode::CmpLt || cmp == Opcode::CmpLe;
    for (std::int64_t iv0 = -12; iv0 <= 12; ++iv0) {
      for (std::int64_t bound = -12; bound <= 12; ++bound) {
        for (std::int64_t step = -5; step <= 5; ++step) {
          const std::optional<std::uint64_t> trips =
              closed_form_trips(cmp, iv0, bound, step);
          // Defined exactly when the step moves toward the exit.
          ASSERT_EQ(trips.has_value(), up ? step > 0 : step < 0)
              << iv0 << " " << bound << " " << step;
          if (trips) {
            EXPECT_EQ(static_cast<std::int64_t>(*trips),
                      enumerate_trips(cmp, iv0, bound, step))
                << iv0 << " " << bound << " " << step;
          }
        }
      }
    }
  }
}

TEST(ClosedFormTripsTest, RefusesAnIvThatWouldWrap) {
  // `iv <= INT64_MAX` only exits once the IV wraps: the runtime must
  // leave that loop to the predicate slice.
  EXPECT_FALSE(closed_form_trips(Opcode::CmpLe, INT64_MAX - 2, INT64_MAX, 1));
  EXPECT_FALSE(closed_form_trips(Opcode::CmpGe, INT64_MIN + 2, INT64_MIN, -1));
  EXPECT_FALSE(closed_form_trips(Opcode::CmpLt, 0, INT64_MAX, INT64_MAX - 1));
  // Reaching exactly the end of the range is fine.
  EXPECT_EQ(closed_form_trips(Opcode::CmpLt, INT64_MAX - 2, INT64_MAX, 1),
            std::optional<std::uint64_t>(2));
  EXPECT_EQ(closed_form_trips(Opcode::CmpGt, 0, INT64_MIN, INT64_MIN / 2),
            std::optional<std::uint64_t>(2));
  EXPECT_FALSE(closed_form_trips(Opcode::CmpEq, 0, 10, 1));
}

TEST(SyncCountsTest, StructuralCountsMatchShape) {
  // Two chunks of 10 under distance 3: the first chunk has no earlier
  // chunk (all 10 elided... minus the first d iterations which have no
  // source at all); in chunk 2 the first min(d, len) iterations reach
  // back across the boundary.
  const std::vector<Chunk> chunks{{0, 10}, {10, 20}};
  const SyncCounts counts = structural_sync_counts(chunks, 3);
  EXPECT_EQ(counts.waits, 3u);
  // Iterations whose source lies inside their own chunk: max(0, 10-3)*2.
  EXPECT_EQ(counts.elided, 14u);
}

TEST(SyncCountsTest, SingleChunkElidesEverything) {
  const std::vector<Chunk> chunks{{0, 100}};
  const SyncCounts counts = structural_sync_counts(chunks, 4);
  EXPECT_EQ(counts.waits, 0u);
  EXPECT_EQ(counts.elided, 96u);
}

// --- Cost model ---------------------------------------------------------

/// A started pool whose workers are still spinning.
constexpr PoolState kWarm{true, 0, 0, 0};

CostEstimate estimate(std::uint64_t trips, std::uint64_t per_iter,
                      unsigned lanes, std::int64_t distance,
                      const PoolState& pool = kWarm) {
  const std::vector<Chunk> chunks = plan_chunks(trips, lanes, distance);
  return predict_dispatch(trips, per_iter, lanes, chunks, distance,
                          structural_sync_counts(chunks, distance), pool);
}

TEST(CostModelTest, ReturnsItsInputsAndBothPredictions) {
  const CostEstimate e = estimate(1000, 50, 4, 0);
  EXPECT_EQ(e.trips, 1000u);
  EXPECT_EQ(e.per_iter, 50u);
  EXPECT_EQ(e.lanes, 4u);
  EXPECT_EQ(e.chunks, 4u);
  EXPECT_EQ(e.distance, 0);
  EXPECT_EQ(e.waits, 0u);
  EXPECT_EQ(e.serial_ps, 1000u * 50u * kInsnPs);
  EXPECT_EQ(e.parallel_ps,
            kDispatchPs + 4 * kChunkPs + 250u * 50u * kInsnPs);
  EXPECT_EQ(e.dispatch, e.parallel_ps < e.serial_ps);
}

/// Pool states the model must treat alike where the pool cannot matter:
/// warm, parked, not started, and not started with credit in hand.
const std::vector<PoolState> kPoolStates{kWarm,
                                         {true, UINT64_MAX, UINT64_MAX, 0},
                                         {false, 0, 0, 0},
                                         {false, 10, 10, kStartPs / 2}};

TEST(CostModelTest, DoacrossDistanceOneAlwaysDeclines) {
  // The post-wait chain of a DOACROSS(1) chunking is the whole trip
  // count, so the parallel prediction is serial plus overhead.
  for (const PoolState& pool : kPoolStates) {
    for (std::uint64_t trips : {2ull, 3ull, 16ull, 597ull, 100000ull,
                                50000000ull}) {
      for (unsigned lanes = 1; lanes <= 8; ++lanes) {
        for (std::uint64_t per_iter : {5ull, 100ull, 100000ull}) {
          const CostEstimate e = estimate(trips, per_iter, lanes, 1, pool);
          EXPECT_FALSE(e.dispatch) << trips << " trips, " << lanes
                                   << " lanes";
          EXPECT_GE(e.parallel_ps, e.serial_ps);
          EXPECT_EQ(e.forgone_ps, 0u);
        }
      }
    }
  }
}

TEST(CostModelTest, OneLaneAlwaysDeclines) {
  for (const PoolState& pool : kPoolStates) {
    for (std::int64_t distance : {0, 1, 2, 3, 8}) {
      for (std::uint64_t trips : {2ull, 64ull, 5000ull, 10000000ull}) {
        EXPECT_FALSE(estimate(trips, 200, 1, distance, pool).dispatch)
            << trips << " trips, distance " << distance;
      }
    }
  }
}

TEST(CostModelTest, BiggerDoallVolumeNeverFlipsToDecline) {
  // More trips or more instructions per iteration add at least as much
  // serial time as parallel time, so a dispatch stays a dispatch.
  for (const PoolState& pool : kPoolStates) {
    for (unsigned lanes = 2; lanes <= 8; ++lanes) {
      for (std::uint64_t per_iter = 4; per_iter <= 256; per_iter *= 2) {
        bool dispatched = false;
        for (std::uint64_t trips = 2; trips <= 4000; ++trips) {
          const bool now = estimate(trips, per_iter, lanes, 0, pool).dispatch;
          ASSERT_FALSE(dispatched && !now)
              << trips << " trips, " << per_iter << " insns, " << lanes
              << " lanes";
          ASSERT_FALSE(now &&
                       !estimate(trips, per_iter + 1, lanes, 0, pool).dispatch)
              << trips << " trips, " << per_iter << "+1 insns";
          dispatched = now;
        }
      }
    }
  }
}

TEST(CostModelTest, ParkedWorkersChargeAWake) {
  // The spin window is WorkerPool::kSpin of serial instructions at
  // c_insn each; one instruction more and the workers have parked.
  const std::uint64_t spin_insns =
      std::chrono::duration<std::uint64_t, std::pico>(WorkerPool::kSpin)
          .count() /
      kInsnPs;
  const CostEstimate spinning =
      estimate(1000, 50, 4, 0, {true, spin_insns, 0, 0});
  const CostEstimate parked =
      estimate(1000, 50, 4, 0, {true, spin_insns + 1, 0, 0});
  EXPECT_EQ(spinning.ready_ps, 0u);
  EXPECT_EQ(parked.ready_ps, kWakePs);
  EXPECT_EQ(parked.parallel_ps, spinning.parallel_ps + kWakePs);
  EXPECT_TRUE(parked.spinning_win);
  // What is forgone follows the idle time of a pool that had run every
  // loop it wins on, not the real pool's.
  EXPECT_EQ(parked.forgone_ps, spinning.forgone_ps);
  EXPECT_EQ(estimate(1000, 50, 4, 0, {true, 0, spin_insns + 1, 0}).forgone_ps,
            spinning.forgone_ps - kWakePs);
}

TEST(CostModelTest, ReadyingThePoolIsChargedLessTheCredit) {
  const CostEstimate warm = estimate(100000, 50, 4, 0);
  EXPECT_EQ(warm.ready_ps, 0u);
  EXPECT_TRUE(warm.spinning_win);
  EXPECT_EQ(warm.forgone_ps, warm.serial_ps - warm.parallel_ps);
  const CostEstimate cold = estimate(100000, 50, 4, 0, {false, 0, 0, 0});
  EXPECT_EQ(cold.ready_ps, kStartPs);
  EXPECT_EQ(cold.parallel_ps, warm.parallel_ps + kStartPs);
  EXPECT_EQ(cold.forgone_ps, warm.forgone_ps);
  EXPECT_EQ(estimate(100000, 50, 4, 0, {false, 0, 0, 1000}).ready_ps,
            kStartPs - 1000);
  EXPECT_EQ(estimate(100000, 50, 4, 0, {false, 0, 0, kStartPs}).ready_ps, 0u);
  EXPECT_EQ(estimate(100000, 50, 4, 0, {true, UINT64_MAX, 0, 1000}).ready_ps,
            kWakePs - 1000);
}

TEST(CostModelTest, BackToBackEntriesStartThePoolOnceTheirGainsPayForIt) {
  // A loop whose gain is below c_start declines on its first entries,
  // banking each gain, and dispatches on the first entry whose credit
  // plus gain outweighs the start-up; the interpreter then zeroes the
  // credit.
  const std::uint64_t trips = 64;
  const std::uint64_t per_iter = 400;
  const std::uint64_t gain = estimate(trips, per_iter, 4, 0).forgone_ps;
  ASSERT_GT(gain, 0u);
  ASSERT_LT(gain, kStartPs);
  PoolState pool{false, 0, 0, 0};
  int declines = 0;
  for (;;) {
    const CostEstimate e = estimate(trips, per_iter, 4, 0, pool);
    if (e.dispatch) break;
    pool.credit_ps += e.forgone_ps;
    ASSERT_LT(++declines, 100000);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(declines), kStartPs / gain);
}

TEST(CostModelTest, LoopsThatOnlyWinOnASpinningPoolBankNothingWhenSparse) {
  // Gains below c_wake, with every entry further apart than the spin
  // window: even a pool that ran them all would wake for each, so they
  // never start it.
  const CostEstimate e =
      estimate(64, 50, 4, 0, {false, UINT64_MAX, UINT64_MAX, 0});
  ASSERT_TRUE(e.spinning_win);
  ASSERT_LT(estimate(64, 50, 4, 0).forgone_ps, kWakePs);
  EXPECT_FALSE(e.dispatch);
  EXPECT_EQ(e.forgone_ps, 0u);
  // A loop that loses even on a spinning pool banks nothing either.
  EXPECT_FALSE(estimate(16, 20, 4, 0, {false, 0, 0, 0}).spinning_win);
  EXPECT_EQ(estimate(16, 20, 4, 0, {false, 0, 0, 0}).forgone_ps, 0u);
}

TEST(CostModelTest, LargeDoallLoopsDispatchAndShortOnesDecline) {
  // A 4-lane dispatch must amortize its hand-off: a few hundred
  // instructions of work never do, a few hundred thousand always do.
  EXPECT_FALSE(estimate(16, 20, 4, 0).dispatch);
  EXPECT_TRUE(estimate(4096, 100, 4, 0).dispatch);
}

TEST(CostModelTest, SaturatesInsteadOfWrapping) {
  const CostEstimate e = estimate(UINT64_MAX / 2, UINT64_MAX / 2, 4, 0);
  EXPECT_EQ(e.serial_ps, UINT64_MAX);
  EXPECT_FALSE(e.dispatch);
}

TEST(ProgressBoardTest, WaitReturnsOncePrefixPublished) {
  const std::vector<Chunk> chunks{{0, 4}, {4, 8}};
  ProgressBoard board(chunks);
  board.publish(0, 4);  // Chunk 0 fully done.
  board.publish(1, 2);  // Iterations 4,5 done.
  EXPECT_TRUE(board.wait_for_prefix(5));
}

TEST(ProgressBoardTest, AbortUnblocksWaiters) {
  const std::vector<Chunk> chunks{{0, 4}, {4, 8}};
  ProgressBoard board(chunks);
  board.abort();
  EXPECT_FALSE(board.wait_for_prefix(7));
  EXPECT_TRUE(board.aborted());
}

TEST(ProgressBoardTest, FaultStopsOnlyLaterChunks) {
  const std::vector<Chunk> chunks{{0, 4}, {4, 8}, {8, 12}};
  ProgressBoard board(chunks);
  board.publish(0, 4);
  board.fault(2);
  board.fault(1);  // The earliest fault wins, whatever the order.
  board.fault(2);
  EXPECT_TRUE(board.live(0));
  EXPECT_FALSE(board.live(1));
  EXPECT_FALSE(board.live(2));
  EXPECT_FALSE(board.aborted());
  EXPECT_TRUE(board.wait_for_prefix(3));   // Chunk 0 finished.
  EXPECT_FALSE(board.wait_for_prefix(5));  // Chunk 1 never will.
}

// --- End-to-end determinism --------------------------------------------

driver::CompiledProgram compile_planned(const std::string& source,
                                        bool use_hli = true) {
  driver::PipelineOptions options;
  options.use_hli = use_hli;
  options.enable_unroll = false;  // Keep loop shapes canonical.
  options.exec_threads = 4;
  return driver::compile_source(source, options);
}

RunResult run_threads(const driver::CompiledProgram& compiled,
                      unsigned threads,
                      std::uint64_t max_insns = 50'000'000) {
  InterpOptions interp;
  interp.exec_threads = threads;
  interp.force_dispatch = true;  // Dispatch even tiny test loops.
  interp.max_insns = max_insns;
  return run_program(compiled.rtl, "main", nullptr, interp);
}

void expect_identical(const RunResult& serial, const RunResult& threaded) {
  EXPECT_EQ(serial.ok, threaded.ok);
  EXPECT_EQ(serial.error, threaded.error);
  EXPECT_EQ(serial.return_value, threaded.return_value);
  EXPECT_EQ(serial.output_hash, threaded.output_hash);
  EXPECT_EQ(serial.emit_count, threaded.emit_count);
  EXPECT_EQ(serial.dynamic_insns, threaded.dynamic_insns);
}

TEST(ParexecEndToEndTest, DoallLoopIsDispatchedAndByteIdentical) {
  const char* src =
      "int A[512];\n"
      "void emit(int v);\n"
      "int main() {\n"
      "  for (int i = 0; i < 500; i = i + 1) { A[i] = i * 3 + 1; }\n"
      "  emit(A[0] + A[499]);\n"
      "  return A[250];\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  const RunResult serial = run_threads(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  EXPECT_EQ(serial.parexec.invocations, 0u);
  for (unsigned threads : {2u, 4u, 8u}) {
    const RunResult par = run_threads(compiled, threads);
    expect_identical(serial, par);
    EXPECT_GT(par.parexec.loops_parallelized, 0u) << threads << " threads";
    EXPECT_GT(par.parexec.par_iterations, 0u);
  }
}

TEST(ParexecEndToEndTest, SumReductionIsRecognizedAndExact) {
  const char* src =
      "int A[256];\n"
      "int main() {\n"
      "  for (int i = 0; i < 256; i = i + 1) { A[i] = i * 7 - 300; }\n"
      "  int s = 5;\n"
      "  for (int i = 0; i < 256; i = i + 1) { s = s + A[i]; }\n"
      "  return s & 255;\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  const RunResult serial = run_threads(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  const RunResult par = run_threads(compiled, 4);
  expect_identical(serial, par);
  EXPECT_GT(par.parexec.loops_parallelized, 0u);
}

TEST(ParexecEndToEndTest, SubAndXorReductionsStayExact) {
  const char* src =
      "int A[200];\n"
      "int main() {\n"
      "  for (int i = 0; i < 200; i = i + 1) { A[i] = i * 13 + 4; }\n"
      "  int d = 100000;\n"
      "  for (int i = 0; i < 200; i = i + 1) { d = d - A[i]; }\n"
      "  int x = 9;\n"
      "  for (int i = 0; i < 200; i = i + 1) { x = x ^ A[i]; }\n"
      "  return (d + x) & 65535;\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  const RunResult serial = run_threads(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  const RunResult par = run_threads(compiled, 8);
  expect_identical(serial, par);
}

TEST(ParexecEndToEndTest, DoacrossPostWaitPreservesRecurrence) {
  // A[i] depends on A[i-3]: DOACROSS(3).  The chunked post-wait protocol
  // must order cross-chunk pairs; in-chunk pairs are elided.  CI's
  // parexec stage runs this test as the witness that the post-wait path
  // executes: the cost model declines every DOACROSS plan of the suite.
  const char* src =
      "int A[600];\n"
      "int main() {\n"
      "  A[0] = 1; A[1] = 2; A[2] = 3;\n"
      "  for (int i = 3; i < 600; i = i + 1) { A[i] = A[i - 3] + i; }\n"
      "  return (A[599] + A[598] + A[3]) & 1048575;\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  const RunResult serial = run_threads(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  for (unsigned threads : {2u, 3u, 4u}) {
    const RunResult par = run_threads(compiled, threads);
    expect_identical(serial, par);
    EXPECT_EQ(par.parexec.loops_parallelized, 1u) << threads << " threads";
    EXPECT_EQ(par.parexec.ordered_insns, par.parexec.par_insns);
    // Deterministic structural accounting, not "how often a wait blocked".
    EXPECT_GT(par.parexec.sync_waits, 0u) << threads << " threads";
    EXPECT_GT(par.parexec.sync_waits + par.parexec.sync_elided, 0u);
    const RunResult again = run_threads(compiled, threads);
    EXPECT_EQ(par.parexec.sync_waits, again.parexec.sync_waits);
    EXPECT_EQ(par.parexec.sync_elided, again.parexec.sync_elided);
  }
}

TEST(ParexecEndToEndTest, TripCountsMatchSerialForEveryPredicateShape) {
  // Upward and downward steps, strict and inclusive bounds, steps that
  // do not divide the range, and a bound the IV starts past: each is a
  // counted loop whose trip count the runtime takes in closed form, and
  // every count must equal the number of iterations a serial run
  // executes.
  const char* src =
      "int A[800];\n"
      "int main() {\n"
      "  int n = 300;\n"
      "  for (int i = 0; i <= n; i = i + 1) { A[i] = i; }\n"
      "  for (int i = 299; i > 0; i = i - 1) { A[i + 300] = i * 2; }\n"
      "  for (int i = 299; i >= 0; i = i - 3) { A[i] = A[i] + 1; }\n"
      "  for (int i = 9; i < 3; i = i + 1) { A[i] = 0; }\n"
      "  for (int i = 0; i < n; i = i + 4) { A[i + 1] = A[i + 1] * 3; }\n"
      "  return (A[0] + A[299] + A[300] + A[597]) & 65535;\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  const backend::RtlFunction& main = *compiled.rtl.find_function("main");
  ASSERT_EQ(main.parexec.size(), 5u);
  for (const LoopPlan& plan : main.parexec) {
    EXPECT_NE(closed_form_compare(main, plan), nullptr);
  }
  const RunResult serial = run_threads(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  for (unsigned threads : {2u, 3u, 4u}) {
    const RunResult par = run_threads(compiled, threads);
    expect_identical(serial, par);
    EXPECT_EQ(par.parexec.par_iterations, 301u + 299u + 100u + 75u)
        << threads << " threads";
  }
}

TEST(ParexecEndToEndTest, TripCountsMatchSerialThroughThePredicateSlice) {
  // With LICM off, each bound is computed inside the predicate, so there
  // is no closed form: the runtime runs the predicate slice once per
  // trip ahead of the bodies.
  const char* src =
      "int A[800];\n"
      "int main() {\n"
      "  int n = 300;\n"
      "  for (int i = 0; i < n - 2; i = i + 1) { A[i] = i; }\n"
      "  for (int i = 0; i <= n * 2 - 301; i = i + 3) { A[i + 300] = i * 2; }\n"
      "  return (A[0] + A[297] + A[300] + A[597]) & 65535;\n"
      "}\n";
  driver::PipelineOptions options;
  options.use_hli = true;
  options.enable_unroll = false;
  options.enable_licm = false;
  options.exec_threads = 4;
  const driver::CompiledProgram compiled = driver::compile_source(src, options);
  const backend::RtlFunction& main = *compiled.rtl.find_function("main");
  ASSERT_EQ(main.parexec.size(), 2u);
  for (const LoopPlan& plan : main.parexec) {
    EXPECT_EQ(closed_form_compare(main, plan), nullptr);
  }
  const RunResult serial = run_threads(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  for (unsigned threads : {2u, 3u, 4u}) {
    const RunResult par = run_threads(compiled, threads);
    expect_identical(serial, par);
    EXPECT_EQ(par.parexec.par_iterations, 298u + 100u)
        << threads << " threads";
  }
}

TEST(ParexecEndToEndTest, NoHliPlansComeFromIndependentAnalyzer) {
  const char* src =
      "int A[400];\n"
      "int main() {\n"
      "  for (int i = 0; i < 400; i = i + 1) { A[i] = i + 11; }\n"
      "  return A[399];\n"
      "}\n";
  const driver::CompiledProgram compiled =
      compile_planned(src, /*use_hli=*/false);
  const RunResult serial = run_threads(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  const RunResult par = run_threads(compiled, 4);
  expect_identical(serial, par);
  EXPECT_GT(par.parexec.loops_parallelized, 0u)
      << "irdep alone should prove this DOALL";
}

TEST(ParexecEndToEndTest, PureCallsInChunksRunOnWorkerStacks) {
  // The callee's frame holds a local array, so every lane but the caller
  // fills and sums it on a worker stack carved from the top of the
  // arena.  A small arena puts those stacks on its last pages.
  const char* src =
      "int A[256];\n"
      "int fill(int n) {\n"
      "  int t[64];\n"
      "  for (int k = 0; k < 64; k = k + 1) { t[k] = n + k; }\n"
      "  int s = 0;\n"
      "  for (int k = 0; k < 64; k = k + 1) { s = s + t[k]; }\n"
      "  return s;\n"
      "}\n"
      "int main() {\n"
      "  for (int i = 0; i < 256; i = i + 1) { A[i] = fill(i); }\n"
      "  return A[0] + A[255];\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  InterpOptions serial;
  serial.memory_bytes = 1u << 20;
  const RunResult expected = run_program(compiled.rtl, "main", nullptr, serial);
  ASSERT_TRUE(expected.ok) << expected.error;
  EXPECT_EQ(expected.return_value, 2016 + (64 * 255 + 2016));
  InterpOptions lanes = serial;
  lanes.exec_threads = 4;
  lanes.force_dispatch = true;
  const RunResult par = run_program(compiled.rtl, "main", nullptr, lanes);
  expect_identical(expected, par);
  EXPECT_EQ(par.parexec.invocations, 1u);
  EXPECT_EQ(par.parexec.chunks, 4u);  // One per lane.
  EXPECT_EQ(par.parexec.par_iterations, 256u);
}

TEST(ParexecEndToEndTest, CostModelDeclinesShortLoop) {
  // 64 trips of a few instructions: far less work than one dispatch.
  const char* src =
      "int A[64];\n"
      "int main() {\n"
      "  for (int i = 0; i < 64; i = i + 1) { A[i] = i; }\n"
      "  return A[63];\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  InterpOptions interp;
  interp.exec_threads = 4;
  const RunResult r = run_program(compiled.rtl, "main", nullptr, interp);
  ASSERT_TRUE(r.ok) << r.error;
  expect_identical(run_threads(compiled, 1), r);
  EXPECT_EQ(r.parexec.loops_parallelized, 0u);
  EXPECT_EQ(r.parexec.par_iterations, 0u);
  EXPECT_EQ(r.parexec.cost_declines, 1u);
  EXPECT_EQ(r.parexec.serial_fallbacks, 0u);
}

TEST(ParexecEndToEndTest, CostModelDispatchesLongDoallLoop) {
  const char* src =
      "int A[40000];\n"
      "int main() {\n"
      "  for (int i = 0; i < 40000; i = i + 1) { A[i] = i * 3 + (i ^ 5); }\n"
      "  return A[39999] & 65535;\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  InterpOptions interp;
  interp.exec_threads = 4;
  const RunResult r = run_program(compiled.rtl, "main", nullptr, interp);
  expect_identical(run_threads(compiled, 1), r);
  EXPECT_EQ(r.parexec.invocations, 1u);
  EXPECT_EQ(r.parexec.cost_declines, 0u);
}

// --- Trap parity ---------------------------------------------------------

/// The plan of main's last planned loop.
const LoopPlan& last_plan(const driver::CompiledProgram& compiled) {
  const RtlFunction* main_fn = compiled.rtl.find_function("main");
  EXPECT_NE(main_fn, nullptr);
  EXPECT_FALSE(main_fn->parexec.empty());
  return main_fn->parexec.back();
}

/// A trap inside a dispatched chunk of main's last loop must report
/// serial's error AND serial's dynamic_insns, at every lane count, under
/// DOALL and DOACROSS.
void expect_trap_parity(const char* src, bool doall,
                        std::size_t memory_bytes = 64u << 20) {
  const driver::CompiledProgram compiled = compile_planned(src);
  const LoopPlan& plan = last_plan(compiled);
  EXPECT_EQ(plan.doall, doall);
  if (!doall) {
    EXPECT_EQ(plan.distance, 3);
  }
  InterpOptions interp;
  interp.memory_bytes = memory_bytes;
  interp.force_dispatch = true;
  const RunResult serial = run_program(compiled.rtl, "main", nullptr, interp);
  ASSERT_FALSE(serial.ok);
  for (unsigned threads : {2u, 3u, 4u}) {
    interp.exec_threads = threads;
    const RunResult par = run_program(compiled.rtl, "main", nullptr, interp);
    EXPECT_FALSE(par.ok) << threads << " threads";
    EXPECT_EQ(serial.error, par.error) << threads << " threads";
    EXPECT_EQ(serial.dynamic_insns, par.dynamic_insns)
        << threads << " threads";
  }
}

TEST(ParexecTrapParityTest, DoallDivisionByZero) {
  const char* src =
      "int A[600]; int D[600];\n"
      "int f(int k) { D[k] = 0; return k; }\n"
      "int main() {\n"
      "  for (int i = 0; i < 600; i = i + 1) { D[i] = 7 + (i & 3); }\n"
      "  f(437);\n"
      "  for (int i = 0; i < 600; i = i + 1) {\n"
      "    A[i] = 1000 / D[i] + i * i;\n"
      "  }\n"
      "  return A[5];\n"
      "}\n";
  expect_trap_parity(src, /*doall=*/true);
}

TEST(ParexecTrapParityTest, DoallOutOfRangeAccess) {
  // A 16 KiB stride walks off the end of a 4 MiB arena mid-loop.
  const char* src =
      "int A[16];\n"
      "int main() {\n"
      "  for (int i = 0; i < 600; i = i + 1) { A[i * 4096] = i + 1; }\n"
      "  return A[0];\n"
      "}\n";
  expect_trap_parity(src, /*doall=*/true, 4u << 20);
}

TEST(ParexecTrapParityTest, DoacrossDivisionByZero) {
  const char* src =
      "int A[600]; int D[600];\n"
      "int f(int k) { D[k] = 0; return k; }\n"
      "int main() {\n"
      "  for (int i = 0; i < 600; i = i + 1) { D[i] = 7 + (i & 3); }\n"
      "  f(437);\n"
      "  A[0] = 1; A[1] = 2; A[2] = 3;\n"
      "  for (int i = 3; i < 600; i = i + 1) {\n"
      "    A[i] = A[i - 3] + 1000 / D[i];\n"
      "  }\n"
      "  return A[599];\n"
      "}\n";
  expect_trap_parity(src, /*doall=*/false);
}

TEST(ParexecTrapParityTest, DoacrossOutOfRangeAccess) {
  const char* src =
      "int A[600]; int B[16];\n"
      "int main() {\n"
      "  A[0] = 1; A[1] = 2; A[2] = 3;\n"
      "  for (int i = 3; i < 600; i = i + 1) {\n"
      "    A[i] = A[i - 3] + i;\n"
      "    B[i * 4096] = i;\n"
      "  }\n"
      "  return A[599];\n"
      "}\n";
  expect_trap_parity(src, /*doall=*/false, 4u << 20);
}

TEST(ParexecEndToEndTest, BudgetTripMatchesSerialExactly) {
  // The budget trips inside the parallel region; the parallel run must
  // report the same trap AND the same saturated dynamic_insns as serial.
  const char* src =
      "int A[2048];\n"
      "int main() {\n"
      "  for (int i = 0; i < 2048; i = i + 1) { A[i] = i * 5; }\n"
      "  return A[2047];\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  const std::uint64_t budget = 3000;  // Trips mid-loop.
  const RunResult serial = run_threads(compiled, 1, budget);
  const RunResult par = run_threads(compiled, 4, budget);
  ASSERT_FALSE(serial.ok);
  EXPECT_NE(serial.error.find("budget"), std::string::npos);
  expect_identical(serial, par);
}

TEST(ParexecEndToEndTest, EmitInLoopBodyIsNeverParallelized) {
  // emit() is observable output: the planner must reject the loop (an
  // impure call), so ordering — and the order-sensitive hash — is safe.
  const char* src =
      "void emit(int v);\n"
      "int main() {\n"
      "  for (int i = 0; i < 100; i = i + 1) { emit(i); }\n"
      "  return 0;\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  const RunResult serial = run_threads(compiled, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  const RunResult par = run_threads(compiled, 4);
  expect_identical(serial, par);
  EXPECT_EQ(par.parexec.loops_parallelized, 0u);
  EXPECT_EQ(serial.emit_count, 100u);
}

TEST(ParexecEndToEndTest, StatsAreDeterministicAcrossRepeatedRuns) {
  const char* src =
      "int A[512]; int B[512];\n"
      "int main() {\n"
      "  for (int i = 0; i < 512; i = i + 1) { A[i] = i; }\n"
      "  for (int i = 0; i < 512; i = i + 1) { B[i] = A[i] * 2; }\n"
      "  return B[511];\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  const RunResult a = run_threads(compiled, 4);
  const RunResult b = run_threads(compiled, 4);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.parexec.loops_parallelized, b.parexec.loops_parallelized);
  EXPECT_EQ(a.parexec.invocations, b.parexec.invocations);
  EXPECT_EQ(a.parexec.chunks, b.parexec.chunks);
  EXPECT_EQ(a.parexec.par_iterations, b.parexec.par_iterations);
  EXPECT_EQ(a.parexec.sync_waits, b.parexec.sync_waits);
  EXPECT_EQ(a.parexec.sync_elided, b.parexec.sync_elided);
  EXPECT_EQ(a.parexec.serial_fallbacks, b.parexec.serial_fallbacks);
  EXPECT_EQ(a.parexec.cost_declines, b.parexec.cost_declines);
}

TEST(ParexecEndToEndTest, DriverExecuteHonorsPlannedThreadCount) {
  const char* src =
      "int A[300];\n"
      "int main() {\n"
      "  for (int i = 0; i < 300; i = i + 1) { A[i] = i * 2; }\n"
      "  return A[299];\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  EXPECT_EQ(compiled.exec_threads, 4u);
  const RunResult threaded = driver::execute(compiled);
  ASSERT_TRUE(threaded.ok) << threaded.error;
  driver::CompiledProgram serial_prog =
      driver::compile_source(src, driver::PipelineOptions{});
  const RunResult serial = driver::execute(serial_prog);
  ASSERT_TRUE(serial.ok) << serial.error;
  EXPECT_EQ(serial.return_value, threaded.return_value);
  EXPECT_EQ(serial.output_hash, threaded.output_hash);
  EXPECT_EQ(serial.dynamic_insns, threaded.dynamic_insns);
}

}  // namespace
}  // namespace hli::backend::parexec
