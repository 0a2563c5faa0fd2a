// Compilation telemetry: a zero-overhead-when-off tracing + counters
// layer threaded through the whole pipeline.
//
//   * Counters — a typed registry.  `counter("sched.ddg_edges_pruned")`
//     interns a name once and returns a cheap handle; `Counter::add`
//     increments whatever CounterSet the CURRENT THREAD has installed
//     (one TLS load + null check when nothing is installed, so passes can
//     instrument unconditionally).  The full catalog with semantics lives
//     in docs/observability.md.
//   * Sinks — `ScopedRecorder` installs a CounterSet (and/or a Tracer)
//     for the enclosing scope, RAII-restoring the previous sink.  Scopes
//     nest: a per-function set merges into the surrounding per-program
//     set on scope exit, so both granularities come out of one pass run.
//     Recording is strictly per-thread and per-compilation state, which
//     is what makes `compile_many --jobs N` stats byte-identical to a
//     serial loop (driver::parallel_for re-installs the caller's sink on
//     its workers through per-task sets merged in task order).
//   * Spans — RAII wall-clock timers emitting Chrome trace_event JSON
//     ("catapult" format: load the file in chrome://tracing or
//     https://ui.perfetto.dev).  A Span is inert unless a Tracer is
//     installed; the shared Tracer is thread-safe and records a dense
//     thread id per worker so `compile_many` fan-out is visible.
//   * AtomicCounterSet — the same counter ids over std::atomic slots,
//     for genuinely shared state (hli::HliStore decode-once accounting)
//     that many workers bump concurrently.
//
// Determinism contract: CounterSet contents depend only on the work
// recorded into them (no wall-clock, no thread ids); `nonzero()` renders
// name-sorted.  Tracers are timing data and deliberately NOT part of any
// byte-identical guarantee.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hli::telemetry {

class CounterSet;
class Tracer;

namespace detail {
/// The current thread's recording destinations.  Plain pointers with
/// constant initialization: reading them compiles to one TLS load, no
/// init guard — this is the entire "telemetry off" cost.
struct Sink {
  CounterSet* counters = nullptr;
  Tracer* tracer = nullptr;
};
extern thread_local constinit Sink tls_sink;
}  // namespace detail

/// Handle to one registered counter.  Copyable, trivially cheap; obtain
/// via `counter(name)` (typically a namespace-scope const in the pass
/// that increments it).
class Counter {
 public:
  Counter() = default;

  /// Adds `n` to the current thread's installed CounterSet; dropped when
  /// none is installed.
  void add(std::uint64_t n = 1) const noexcept;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] std::string_view name() const;

 private:
  friend Counter counter(std::string_view name);
  explicit Counter(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Interns `name` in the process-wide registry (idempotent, thread-safe)
/// and returns its handle.  Names are dotted lowercase, `<area>.<what>`.
[[nodiscard]] Counter counter(std::string_view name);

/// Number of counters registered so far (ids are `0 .. count-1`).
[[nodiscard]] std::size_t counter_count();

/// Name of a registered counter id ("" for out-of-range).
[[nodiscard]] std::string_view counter_name(std::uint32_t id);

/// A value per registered counter.  Single-threaded by design — one set
/// per compilation (or per parallel_for task), merged deterministically.
class CounterSet {
 public:
  void add(std::uint32_t id, std::uint64_t n) {
    if (id >= values_.size()) values_.resize(id + 1, 0);
    values_[id] += n;
  }

  [[nodiscard]] std::uint64_t value(Counter c) const {
    return c.id() < values_.size() ? values_[c.id()] : 0;
  }
  /// Value by registered name; 0 when the name is unknown or never hit.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

  /// True when every counter is zero.
  [[nodiscard]] bool empty() const {
    for (const std::uint64_t v : values_) {
      if (v != 0) return false;
    }
    return true;
  }

  CounterSet& operator+=(const CounterSet& other) {
    if (other.values_.size() > values_.size()) {
      values_.resize(other.values_.size(), 0);
    }
    for (std::size_t i = 0; i < other.values_.size(); ++i) {
      values_[i] += other.values_[i];
    }
    return *this;
  }

  [[nodiscard]] bool operator==(const CounterSet& other) const;

  /// All nonzero counters as (name, value), sorted by name — the
  /// deterministic rendering order every report uses.
  [[nodiscard]] std::vector<std::pair<std::string_view, std::uint64_t>>
  nonzero() const;

  void clear() { values_.clear(); }

 private:
  std::vector<std::uint64_t> values_;
};

/// Counter slots over std::atomic, for state shared across threads (the
/// HliStore's decode-once accounting).  Sized once at construction for
/// every counter registered so far; later-registered ids are ignored.
class AtomicCounterSet {
 public:
  AtomicCounterSet();

  void add(Counter c, std::uint64_t n = 1) noexcept {
    if (c.id() < size_) {
      values_[c.id()].fetch_add(n, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t value(Counter c) const noexcept {
    return c.id() < size_ ? values_[c.id()].load(std::memory_order_relaxed)
                          : 0;
  }
  /// Coherent copy for reporting/merging.
  [[nodiscard]] CounterSet snapshot() const;

 private:
  std::size_t size_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> values_;
};

/// Installs `counters`/`tracer` (either may be null) as the current
/// thread's sink for the scope's lifetime and restores the previous sink
/// on destruction.  With `merge_to_parent` (the default), the installed
/// CounterSet is added into the previously installed one on scope exit,
/// so nested scopes (per-function inside per-program) feed both levels.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(CounterSet* counters, Tracer* tracer = nullptr,
                          bool merge_to_parent = true);
  ~ScopedRecorder();

  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  detail::Sink previous_;
  bool merge_;
};

/// Thread-safe collector of Chrome trace_event "complete" (ph:"X")
/// events.  One Tracer is shared by every thread of a compilation; each
/// thread gets a dense tid in first-record order.
class Tracer {
 public:
  Tracer();

  /// Records one complete event for the calling thread.  `ts_us` is a
  /// timestamp from `now_us()`; `dur_us` its duration.
  void record(std::string_view name, std::string_view category,
              std::uint64_t ts_us, std::uint64_t dur_us);

  /// Microseconds since this tracer's epoch (steady clock).
  [[nodiscard]] std::uint64_t now_us() const;

  [[nodiscard]] std::size_t event_count() const;

  /// Summed duration of every event named `name`.
  [[nodiscard]] std::uint64_t total_us(std::string_view name) const;

  /// The full trace file: `{"traceEvents":[...]}`, events sorted by
  /// (timestamp, tid) for stable viewing.
  [[nodiscard]] std::string to_json() const;

  /// Writes `to_json()` to `path`; false (with stderr message) on I/O
  /// failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
    std::uint32_t tid = 0;
  };

  std::uint32_t tid_of_current_thread();  // Callers hold mutex_.

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
};

/// RAII wall-clock span.  Binds to the tracer installed on the
/// constructing thread; when none is installed the span is fully inert
/// (no clock read, no allocation).  `name` is copied only when active.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "pass");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint64_t start_us_ = 0;
  std::string name_;
  std::string category_;
};

inline void Counter::add(std::uint64_t n) const noexcept {
  CounterSet* sink = detail::tls_sink.counters;
  if (sink != nullptr) sink->add(id_, n);
}

/// The CounterSet installed on the calling thread (null when recording is
/// off).  Fan-out code (driver::parallel_for) uses this to re-install the
/// caller's sink on its workers.
[[nodiscard]] inline CounterSet* current_counters() {
  return detail::tls_sink.counters;
}

/// The Tracer installed on the calling thread (null when tracing is off).
[[nodiscard]] inline Tracer* current_tracer() {
  return detail::tls_sink.tracer;
}

}  // namespace hli::telemetry
