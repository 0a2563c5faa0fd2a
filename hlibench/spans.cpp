#include "spans.hpp"

#include <algorithm>

#include "support/telemetry.hpp"

namespace hlibench {

std::uint32_t SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(span);
  const auto index = static_cast<std::uint32_t>(spans_.size() - 1);
  open_.push_back(index);
  spans_.back().start = Clock::now();
  return index;
}

void SpanLog::close(std::uint32_t index) {
  spans_[index].end = Clock::now();
  open_.pop_back();  // ScopedSpan closes in LIFO order.
}

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, double> SpanLog::self_ms(std::size_t first) const {
  // Children never overlap each other (one thread, LIFO), so the part of
  // a span its children cover is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent != kNoParent) {
      child_ms[span.parent] += ms_between(span.start, span.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  if (spans_.empty()) return hli::telemetry::Tracer().write(path);
  Clock::time_point epoch = spans_.front().start;
  for (const Span& span : spans_) epoch = std::min(epoch, span.start);
  const auto us = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  hli::telemetry::Tracer tracer;
  for (const Span& span : spans_) {
    tracer.record(span.name, "op" + std::to_string(span.op),
                  us(span.start - epoch), us(span.end - span.start));
  }
  return tracer.write(path);
}

}  // namespace hlibench
