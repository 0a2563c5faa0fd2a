#include "stats.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

namespace hlibench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

double lowest_quarter_mean(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t keep = (samples.size() + 3) / 4;
  double sum = 0;
  for (std::size_t i = 0; i < keep; ++i) sum += samples[i];
  return sum / static_cast<double>(keep);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  double best = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of no values");
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  if (ld == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method="exclusive", n=4.
  const std::size_t n = 4;
  const std::size_t m = ld + 1;
  std::array<double, 3> out{};
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t j = i * m / n;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * n);
    out[i - 1] = (values[j - 1] * (static_cast<double>(n) - delta) +
                  values[j] * delta) /
                 static_cast<double>(n);
  }
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

std::string format_number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) throw std::runtime_error("cannot format number");
  return std::string(buf, end);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!valid_metric_name(metric.name) || !seen.insert(metric.name).second) {
      throw std::invalid_argument("bad or repeated metric name: " + metric.name);
    }
    if (!valid_unit(metric.unit)) {
      throw std::invalid_argument("bad unit for " + metric.name);
    }
    if (!std::isfinite(metric.value)) {
      throw std::invalid_argument("non-finite value for " + metric.name);
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + metric.name + "\": {\"value\": " +
           format_number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace hlibench
