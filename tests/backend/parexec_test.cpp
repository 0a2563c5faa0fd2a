// Parallel loop execution runtime tests: the worker pool, the chunk
// scheduler and post-wait accounting in isolation, then end-to-end
// determinism — a compiled program run on N lanes must produce the SAME
// RunResult as serial, dynamic_insns included, whether the loop is
// DOALL, a recognized reduction, or DOACROSS(d) under the post-wait
// protocol.  Budget trips and faults inside parallel chunks must also
// surface exactly like serial ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
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
  interp.min_par_insns = 0;  // Dispatch even tiny test loops.
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
  // must order cross-chunk pairs; in-chunk pairs are elided.
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
  const RunResult par = run_threads(compiled, 4);
  expect_identical(serial, par);
  if (par.parexec.loops_parallelized > 0) {
    // Deterministic structural accounting, not "how often a wait blocked".
    EXPECT_GT(par.parexec.sync_waits + par.parexec.sync_elided, 0u);
    const RunResult again = run_threads(compiled, 4);
    EXPECT_EQ(par.parexec.sync_waits, again.parexec.sync_waits);
    EXPECT_EQ(par.parexec.sync_elided, again.parexec.sync_elided);
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
  lanes.min_par_insns = 0;
  const RunResult par = run_program(compiled.rtl, "main", nullptr, lanes);
  expect_identical(expected, par);
  EXPECT_EQ(par.parexec.invocations, 1u);
  EXPECT_EQ(par.parexec.chunks, 4u);  // One per lane.
  EXPECT_EQ(par.parexec.par_iterations, 256u);
}

TEST(ParexecEndToEndTest, VolumeGateFallsBackToSerial) {
  const char* src =
      "int A[64];\n"
      "int main() {\n"
      "  for (int i = 0; i < 64; i = i + 1) { A[i] = i; }\n"
      "  return A[63];\n"
      "}\n";
  const driver::CompiledProgram compiled = compile_planned(src);
  InterpOptions interp;
  interp.exec_threads = 4;
  interp.min_par_insns = 1u << 30;  // Nothing is ever worth dispatching.
  const RunResult r = run_program(compiled.rtl, "main", nullptr, interp);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.parexec.loops_parallelized, 0u);
  EXPECT_EQ(r.parexec.par_iterations, 0u);
  EXPECT_GT(r.parexec.serial_fallbacks, 0u);
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
