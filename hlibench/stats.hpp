// Summary statistics and metric reporting for the benchmark.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hlibench {

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.  `p` in (0, 100]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// The median: the middle sample, or the mean of the two middle ones;
/// 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

/// The mean of the lowest quarter of the samples (n/4 rounded up, so at
/// least one); 0 for no samples.  Of times taken on a shared host that
/// slows down for seconds at a time, it is the cost the host adds least
/// to: unlike a median, it stays put while slow periods cover up to three
/// quarters of a run.
[[nodiscard]] double lowest_quarter_mean(std::vector<double> samples);

/// Number of samples strictly beyond the nearest-rank `p` percentile of
/// `n` samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 50, 90, 99, 99.9 and 99.99 that leaves at least
/// `min_beyond` samples beyond it among `n`; 0 when not even the median
/// does.  A tail percentile reported with fewer samples beyond it is one
/// or two samples, not a distribution.
[[nodiscard]] double tail_percentile(std::size_t n, std::size_t min_beyond = 10);

/// The three quartile cut points exactly as Python's
/// statistics.quantiles(values, n=4) gives them (the default "exclusive"
/// method).  Needs at least one value.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> values);

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Units: 1 to 16 of letters, digits, '_', '/', '%', '.', '-'.
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Shortest decimal text that reads back as exactly `value`.
[[nodiscard]] std::string format_number(double value);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
/// Throws std::invalid_argument on a bad name or unit, a repeated name,
/// or a value that is not finite.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace hlibench
