#include "stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hlibench {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(percentile(ten, 50), 5);
  EXPECT_EQ(percentile(ten, 90), 9);
  EXPECT_EQ(percentile(ten, 100), 10);
  EXPECT_EQ(percentile(ten, 1), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({4.5}, 99), 4.5);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({7}), 7);
  EXPECT_EQ(median({}), 0);
}

TEST(LowestQuarterMean, KeepsTheLowestQuarterRoundedUp) {
  EXPECT_EQ(lowest_quarter_mean({8, 1, 100, 2, 3, 5, 4, -50}), -24.5);  // -50, 1.
  EXPECT_EQ(lowest_quarter_mean({9, 1, 5, 3, 7}), 2);  // 1 and 3.
  EXPECT_EQ(lowest_quarter_mean({6, 2, 4}), 2);
  EXPECT_EQ(lowest_quarter_mean({7}), 7);
  EXPECT_EQ(lowest_quarter_mean({}), 0);
  // Fast samples at 10, slow ones at 20: the median follows the slow
  // share across one half; the lowest quarter stays at the fast cost
  // until slow samples are more than three quarters.
  EXPECT_EQ(median({10, 10, 10, 10, 10, 20, 20, 20}), 10);
  EXPECT_EQ(median({10, 10, 10, 20, 20, 20, 20, 20}), 20);
  EXPECT_EQ(lowest_quarter_mean({10, 10, 10, 20, 20, 20, 20, 20}), 10);
  EXPECT_EQ(lowest_quarter_mean({10, 10, 20, 20, 20, 20, 20, 20}), 10);
  EXPECT_EQ(lowest_quarter_mean({10, 20, 20, 20, 20, 20, 20, 20}), 15);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);  // Rank 990 of 999.
  EXPECT_EQ(samples_beyond(200, 90), 20u);
  EXPECT_EQ(samples_beyond(0, 50), 0u);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 0);  // The median leaves only 9 beyond.
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail_percentile(99), 50);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(999), 90);  // ceil(.99*999) = 990 leaves 9.
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(1000, 11), 90);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const auto expect = [](std::vector<double> values, std::array<double, 3> q) {
    const std::array<double, 3> got = quartiles(std::move(values));
    for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(got[i], q[i]) << i;
  };
  expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25});
  expect({5, 1, 4, 2, 3}, {1.5, 3.0, 4.5});
  expect({3, 1}, {0.5, 2.0, 3.5});
  expect({0.5, 0.25, 0.125, 1.0, 2.0, 4.0, 8.0}, {0.25, 1.0, 4.0});
  expect({7}, {7, 7, 7});
  EXPECT_THROW((void)quartiles({}), std::invalid_argument);
}

TEST(MetricNames, CharacterSet) {
  EXPECT_TRUE(valid_metric_name("latency_ms_p50"));
  EXPECT_TRUE(valid_metric_name("backend.sched2_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, Units) {
  for (const char* unit : {"ms", "s", "1/s", "count", "%", "B/line", "ops/s",
                           "modelled_cycles"}) {
    EXPECT_TRUE(valid_unit(unit)) << unit;
  }
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("modelled cycles"));
  EXPECT_FALSE(valid_unit(std::string(17, 'u')));
}

TEST(ResultJson, ShapeAndChecks) {
  EXPECT_EQ(result_json(true, 3, 0, {{"a_ms", 1.25, "ms"}, {"n", 7, "count"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": "
            "7, \"unit\": \"count\"}}}");
  EXPECT_THROW((void)result_json(true, 1, 0, {{"x", 1, "ms"}, {"x", 2, "ms"}}),
               std::invalid_argument);
  EXPECT_THROW((void)result_json(true, 1, 0, {{"bad name", 1, "ms"}}),
               std::invalid_argument);
  EXPECT_THROW((void)result_json(true, 1, 0, {{"x", 1.0 / 0.0, "ms"}}),
               std::invalid_argument);
}

TEST(FormatNumber, RoundTrips) {
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(1234.5678901234), "1234.5678901234");
  EXPECT_EQ(std::stod(format_number(1.0 / 3.0)), 1.0 / 3.0);
}

}  // namespace
}  // namespace hlibench
