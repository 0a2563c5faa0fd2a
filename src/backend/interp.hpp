// RTL interpreter.  Two jobs:
//   1. Correctness oracle — every optimization pipeline must produce the
//      same observable output (emit() stream checksum, return value) as
//      unoptimized code; tests enforce this on all workloads.
//   2. Execution driver for the machine timing models — the interpreter
//      streams executed instructions (with resolved memory addresses) to a
//      TraceSink, from which the R4600/R10000-like models compute cycles.
// Each run first decodes every function into a dense op stream (32 bytes
// an op, indexed like the function's insns): opcodes specialized by type
// and access width, branch and call targets resolved, global addresses
// folded.  One dispatch loop runs it serially, traced, or as a parallel
// loop's straight-line slice.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "backend/rtl.hpp"

namespace hli::backend {

struct TraceEvent {
  const Insn* insn = nullptr;
  std::uint64_t address = 0;  ///< Resolved address for Load/Store.
};

/// Per-executed-instruction callback; kept as a lightweight interface so
/// the timing models can be driven without std::function overhead.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_insn(const TraceEvent& event) = 0;
};

/// What the parallel loop runtime did during one run.  Every field is
/// deterministic — chunk shapes, trip counts and the post-wait structure
/// depend only on the program and the thread count, never on timing — so
/// two runs of the same program at the same exec_threads report identical
/// stats (and a serial run reports all zeros).
struct ParexecStats {
  std::uint64_t loops_parallelized = 0;  ///< Distinct plans dispatched.
  std::uint64_t invocations = 0;   ///< Parallel loop activations.
  std::uint64_t chunks = 0;        ///< Iteration chunks executed.
  std::uint64_t par_iterations = 0;  ///< Iterations run on the pool.
  /// Instructions executed inside dispatched chunks.  Chunk boundaries
  /// don't change the total (every iteration runs its cond + body slices
  /// exactly once), so this is thread-count-invariant: it measures the
  /// parallelizable volume of the run, the `p` of the Amdahl bound
  /// dynamic_insns / (serial_part + p / lanes) that bench_parexec
  /// reports as the work-distribution speedup limit.
  std::uint64_t par_insns = 0;
  /// The subset of par_insns executed under DOACROSS plans.  A proven
  /// distance d admits at most d iterations in flight, so a DOACROSS(1)
  /// region is pipeline-serial even though it runs on the pool; the
  /// honest bound counts ordered work at speedup 1.
  std::uint64_t ordered_insns = 0;
  std::uint64_t sync_waits = 0;    ///< Cross-chunk post-waits (structural).
  std::uint64_t sync_elided = 0;   ///< Post-waits covered by own chunk.
  /// Planned loops run serially for a structural reason: fewer than two
  /// trips, a single chunk, a predicate that traps, or a serial cost
  /// that would cross the instruction budget.
  std::uint64_t serial_fallbacks = 0;
  /// Planned loops run serially because the cost model predicted no win
  /// (parexec::predict_dispatch).
  std::uint64_t cost_declines = 0;
};

struct RunResult {
  bool ok = false;
  std::string error;
  std::int64_t return_value = 0;
  std::uint64_t dynamic_insns = 0;
  /// Order-sensitive checksum over emit()/emitd() calls: the program's
  /// observable output.
  std::uint64_t output_hash = 0;
  std::uint64_t emit_count = 0;
  ParexecStats parexec;  ///< All-zero unless exec_threads > 1 dispatched.
};

struct InterpOptions {
  std::uint64_t max_insns = 400'000'000;
  /// Size of the program's flat address space: globals from address 8 up,
  /// the master stack above them, and (when loops dispatch) one worker
  /// stack per extra lane carved off the top.  It is an anonymous mapping
  /// whose pages fault in zeroed on first touch, so a run costs only the
  /// pages it uses, not memory_bytes.
  std::size_t memory_bytes = 64u << 20;
  std::size_t max_call_depth = 4096;
  /// Execution lanes for loops carrying a parexec plan (1 = serial; the
  /// calling thread is lane 0, so N lanes spawn N-1 threads).  Parallel
  /// dispatch is disabled under a TraceSink: the timing models consume
  /// the serial instruction stream.
  unsigned exec_threads = 1;
  /// A planned loop is dispatched only when the static cost model
  /// (parexec::predict_dispatch, docs/parallel-execution.md) predicts
  /// that its chunks, plus starting or waking the pool, finish sooner
  /// than a serial run of it; otherwise it runs serially and counts in
  /// ParexecStats::cost_declines.  The model reads no clock, so the
  /// decision depends only on the program and exec_threads.  Test-only:
  /// force_dispatch skips the model, so tests and fuzz legs can run tiny
  /// loops and DOACROSS(1) plans on the pool.
  bool force_dispatch = false;
};

/// Runs `entry` (default "main") with no arguments.
[[nodiscard]] RunResult run_program(const RtlProgram& prog,
                                    const std::string& entry = "main",
                                    TraceSink* sink = nullptr,
                                    const InterpOptions& options = {});

}  // namespace hli::backend
