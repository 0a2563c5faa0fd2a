#include "driver/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "backend/parexec/pool.hpp"
#include "support/telemetry.hpp"

namespace hli::driver {

unsigned default_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (jobs == 0) jobs = default_jobs();
  if (jobs <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  // Propagate the caller's telemetry sink across the fan-out: each task
  // records into its own CounterSet (the caller's Tracer is thread-safe
  // and shared directly), and the per-task sets merge back in task-index
  // order below — so the caller's totals are byte-identical to running
  // the same tasks in a serial loop, whatever the worker interleaving.
  telemetry::CounterSet* const parent = telemetry::current_counters();
  telemetry::Tracer* const tracer = telemetry::current_tracer();
  std::vector<telemetry::CounterSet> task_counters(
      parent != nullptr ? count : 0);
  // Every lane pulls indices from one shared counter until none is left.
  std::atomic<std::size_t> next{0};
  backend::parexec::WorkerPool pool(
      static_cast<unsigned>(std::min<std::size_t>(jobs, count)));
  pool.run([&](unsigned /*lane*/) {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      const telemetry::ScopedRecorder recorder(
          parent != nullptr ? &task_counters[i] : nullptr, tracer,
          /*merge_to_parent=*/false);
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  });
  if (parent != nullptr) {
    for (const telemetry::CounterSet& counters : task_counters) {
      *parent += counters;
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::vector<CompiledProgram> compile_many(const std::vector<std::string>& sources,
                                          const PipelineOptions& options,
                                          unsigned jobs) {
  std::vector<CompiledProgram> out(sources.size());
  parallel_for(sources.size(), jobs, [&](std::size_t i) {
    out[i] = compile_source(sources[i], options);
  });
  return out;
}

CompilationStats aggregate_counters(
    const std::vector<CompiledProgram>& programs) {
  CompilationStats total;
  for (const CompiledProgram& program : programs) total += program.counters;
  return total;
}

}  // namespace hli::driver
