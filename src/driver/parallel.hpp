// Parallel compilation driver: `parallel_for` fans independent tasks out
// over the parexec WorkerPool, and `compile_many` compiles independent
// sources concurrently on it.  `compile_source` is self-contained — it
// shares no mutable state across calls — so the workload benches
// (`bench_table1/2 --jobs N`) and the `hlic --jobs N` tool can fan every
// unit out to one pool and still produce byte-identical results in input
// order.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"

namespace hli::driver {

/// Jobs to use when the caller passes 0: the hardware concurrency,
/// clamped to at least 1.
[[nodiscard]] unsigned default_jobs();

/// Runs `task(0) .. task(count-1)` on up to `jobs` threads (0 = hardware
/// concurrency; 1 = inline on the calling thread, no pool).  Blocks until
/// all tasks finish; if any task threw, rethrows the exception of the
/// lowest task index so error reporting is deterministic regardless of
/// completion order.
void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& task);

/// Compiles every source through the full pipeline on up to `jobs`
/// threads.  Results are in input order and bit-identical to a serial
/// loop (each compile is deterministic and isolated); the first
/// CompileError (by input index) is rethrown.  When options.hli_store
/// points at a shared external container, the workers import through it
/// concurrently: HliStore::get is thread-safe and decodes each unit
/// exactly once, so only the units the compiled sources actually touch
/// are ever materialized.
[[nodiscard]] std::vector<CompiledProgram> compile_many(
    const std::vector<std::string>& sources,
    const PipelineOptions& options = {}, unsigned jobs = 0);

/// Merges every program's telemetry counters in input order: totals add,
/// per-function attributions concatenate.  Because counter collection is
/// per-compilation state, the result is byte-identical however many jobs
/// compiled `programs`.
[[nodiscard]] CompilationStats aggregate_counters(
    const std::vector<CompiledProgram>& programs);

}  // namespace hli::driver
