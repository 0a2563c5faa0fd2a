#include "support/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>

namespace hli::telemetry {

namespace detail {
thread_local constinit Sink tls_sink;
}  // namespace detail

namespace {

/// Process-wide name registry.  Names live in a deque so the
/// string_views handed out stay valid across growth.
struct Registry {
  std::mutex mutex;
  std::deque<std::string> names;
  std::unordered_map<std::string_view, std::uint32_t> ids;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

Counter counter(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.ids.find(name);
  if (it != reg.ids.end()) return Counter(it->second);
  const auto id = static_cast<std::uint32_t>(reg.names.size());
  reg.names.emplace_back(name);
  reg.ids.emplace(std::string_view(reg.names.back()), id);
  return Counter(id);
}

std::size_t counter_count() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.names.size();
}

std::string_view counter_name(std::uint32_t id) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return id < reg.names.size() ? std::string_view(reg.names[id])
                               : std::string_view();
}

std::string_view Counter::name() const { return counter_name(id_); }

std::uint64_t CounterSet::value(std::string_view name) const {
  Registry& reg = registry();
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.ids.find(name);
    if (it == reg.ids.end()) return 0;
    id = it->second;
  }
  return id < values_.size() ? values_[id] : 0;
}

bool CounterSet::operator==(const CounterSet& other) const {
  const std::size_t n = std::max(values_.size(), other.values_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < values_.size() ? values_[i] : 0;
    const std::uint64_t b = i < other.values_.size() ? other.values_[i] : 0;
    if (a != b) return false;
  }
  return true;
}

std::vector<std::pair<std::string_view, std::uint64_t>> CounterSet::nonzero()
    const {
  std::vector<std::pair<std::string_view, std::uint64_t>> out;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != 0) {
      out.emplace_back(counter_name(static_cast<std::uint32_t>(i)),
                       values_[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

AtomicCounterSet::AtomicCounterSet() : size_(counter_count()) {
  values_ = std::make_unique<std::atomic<std::uint64_t>[]>(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    values_[i].store(0, std::memory_order_relaxed);
  }
}

CounterSet AtomicCounterSet::snapshot() const {
  CounterSet out;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::uint64_t v = values_[i].load(std::memory_order_relaxed);
    if (v != 0) out.add(static_cast<std::uint32_t>(i), v);
  }
  return out;
}

ScopedRecorder::ScopedRecorder(CounterSet* counters, Tracer* tracer,
                               bool merge_to_parent)
    : previous_(detail::tls_sink), merge_(merge_to_parent) {
  detail::tls_sink.counters =
      counters != nullptr ? counters : previous_.counters;
  detail::tls_sink.tracer = tracer != nullptr ? tracer : previous_.tracer;
}

ScopedRecorder::~ScopedRecorder() {
  CounterSet* installed = detail::tls_sink.counters;
  detail::tls_sink = previous_;
  if (merge_ && installed != nullptr && previous_.counters != nullptr &&
      installed != previous_.counters) {
    *previous_.counters += *installed;
  }
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint32_t Tracer::tid_of_current_thread() {
  const auto [it, inserted] = tids_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
  return it->second;
}

void Tracer::record(std::string_view name, std::string_view category,
                    std::uint64_t ts_us, std::uint64_t dur_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({std::string(name), std::string(category), ts_us, dur_us,
                     tid_of_current_thread()});
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t Tracer::total_us(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const Event& event : events_) {
    if (event.name == name) total += event.dur_us;
  }
  return total;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
      continue;
    }
    out.push_back(c);
  }
}

}  // namespace

std::string Tracer::to_json() const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                               : a.tid < b.tid;
                   });
  std::string out = "{\"traceEvents\":[";
  char buf[128];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"cat\":\"";
    append_escaped(out, e.category);
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,\"pid\":1,"
                  "\"tid\":%u}",
                  static_cast<unsigned long long>(e.ts_us),
                  static_cast<unsigned long long>(e.dur_us), e.tid);
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "telemetry: cannot write '%s'\n", path.c_str());
    return false;
  }
  const std::string json = to_json();
  const bool wrote = std::fwrite(json.data(), 1, json.size(), out) ==
                     json.size();
  const bool ok = std::fclose(out) == 0 && wrote;
  if (!ok) std::fprintf(stderr, "telemetry: error writing '%s'\n", path.c_str());
  return ok;
}

Span::Span(std::string_view name, std::string_view category)
    : tracer_(detail::tls_sink.tracer) {
  if (tracer_ == nullptr) return;
  name_ = name;
  category_ = category;
  start_us_ = tracer_->now_us();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const std::uint64_t end_us = tracer_->now_us();
  tracer_->record(name_, category_, start_us_,
                  end_us > start_us_ ? end_us - start_us_ : 0);
}

}  // namespace hli::telemetry
