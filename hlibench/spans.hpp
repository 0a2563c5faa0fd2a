// The benchmark's own trace: spans recorded around each public call into
// a layer, from the benchmark's files (nothing inside the libraries is
// instrumented).  Spans live in memory, one log per recording thread, and
// are written out once, at the end of the run, in the Chrome trace format
// telemetry::Tracer produces.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hlibench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name = "";  ///< Static layer name, e.g. "backend.cse".
    std::uint64_t op = 0;   ///< Every span of one op shares its id.
    std::uint32_t parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Later spans belong to op `id` until the next call.
  void set_op(std::uint64_t id) { op_ = id; }

  /// Opens a span nested in the innermost open one; returns its index.
  std::uint32_t open(const char* name);
  void close(std::uint32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Appends another log's spans (indices rebased).
  void merge(const SpanLog& other);

  /// Self time per span name, in ms, of the spans from index `first` on:
  /// each span's duration minus the part its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_ms(std::size_t first = 0) const;

  /// Writes every span as a Chrome trace_event file, with the op id as
  /// the event category; false on I/O failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t op_ = 0;
};

/// RAII span; inert when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

}  // namespace hlibench
