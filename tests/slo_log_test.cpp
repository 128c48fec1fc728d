#include "monitor/slo_log.h"

#include "common/check.h"

#include <gtest/gtest.h>

#include "monitor/labeler.h"
#include "monitor/metric_store.h"

namespace prepare {
namespace {

SloLog make_log() {
  // Violated during [10, 20) and [30, 35); recorded up to t = 50.
  SloLog log;
  for (double t = 0.0; t < 50.0; t += 1.0) {
    const bool violated = (t >= 10.0 && t < 20.0) || (t >= 30.0 && t < 35.0);
    log.record(t, 1.0, violated, violated ? 300.0 : 100.0);
  }
  return log;
}

TEST(SloLog, TracksIntervals) {
  SloLog log = make_log();
  const auto intervals = log.intervals();
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0].start, 10.0);
  EXPECT_DOUBLE_EQ(intervals[0].end, 20.0);
  EXPECT_DOUBLE_EQ(intervals[1].duration(), 5.0);
}

TEST(SloLog, PointQueries) {
  SloLog log = make_log();
  EXPECT_FALSE(log.violated_at(9.5));
  EXPECT_TRUE(log.violated_at(10.0));
  EXPECT_TRUE(log.violated_at(19.9));
  EXPECT_FALSE(log.violated_at(20.0));
  EXPECT_TRUE(log.violated_at(32.0));
  EXPECT_FALSE(log.violated_at(49.0));
}

TEST(SloLog, TotalViolationTime) {
  SloLog log = make_log();
  EXPECT_DOUBLE_EQ(log.total_violation_time(), 15.0);
}

TEST(SloLog, WindowedViolationTime) {
  SloLog log = make_log();
  EXPECT_DOUBLE_EQ(log.violation_time(0.0, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(log.violation_time(15.0, 32.0), 7.0);  // 5 + 2
  EXPECT_DOUBLE_EQ(log.violation_time(21.0, 29.0), 0.0);
}

TEST(SloLog, OpenViolationCountsUpToLastRecord) {
  SloLog log;
  for (double t = 0.0; t < 10.0; t += 1.0) log.record(t, 1.0, t >= 5.0, 0.0);
  EXPECT_TRUE(log.currently_violated());
  EXPECT_DOUBLE_EQ(log.total_violation_time(), 5.0);
  EXPECT_TRUE(log.violated_at(9.5));
  const auto intervals = log.intervals();
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].end, 10.0);
}

TEST(SloLog, MetricTraceRecorded) {
  SloLog log = make_log();
  EXPECT_EQ(log.metric_trace().size(), 50u);
  EXPECT_DOUBLE_EQ(log.metric_trace().at(12).value, 300.0);
}

TEST(SloLog, ClearResets) {
  SloLog log = make_log();
  log.clear();
  EXPECT_DOUBLE_EQ(log.total_violation_time(), 0.0);
  EXPECT_TRUE(log.intervals().empty());
  EXPECT_FALSE(log.currently_violated());
}

TEST(SloLog, InvertedWindowThrows) {
  SloLog log = make_log();
  EXPECT_THROW(log.violation_time(10.0, 5.0), CheckFailure);
}

TEST(Labeler, MatchesTimestampsAgainstSloLog) {
  SloLog slo = make_log();
  MetricStore store;
  AttributeVector v{};
  for (double t = 0.0; t < 50.0; t += 5.0) store.record("vm", t, v);
  const auto labeled = Labeler::label_all(store, slo, "vm");
  ASSERT_EQ(labeled.size(), 10u);
  // Samples at t = 10, 15 and 30 fall inside violations.
  for (std::size_t r = 0; r < labeled.size(); ++r) {
    const double t = labeled.times[r];
    const bool expect_abnormal =
        (t >= 10.0 && t < 20.0) || (t >= 30.0 && t < 35.0);
    EXPECT_EQ(labeled.abnormal[r], expect_abnormal) << "t=" << t;
  }
}

TEST(Labeler, WindowRestrictsSamples) {
  SloLog slo = make_log();
  MetricStore store;
  AttributeVector v{};
  for (double t = 0.0; t < 50.0; t += 5.0) store.record("vm", t, v);
  const auto labeled = Labeler::label(store, slo, "vm", 10.0, 20.0);
  ASSERT_EQ(labeled.size(), 3u);  // t = 10, 15, 20
  EXPECT_DOUBLE_EQ(labeled.times[0], 10.0);
  EXPECT_TRUE(labeled.abnormal[0]);
  EXPECT_FALSE(labeled.abnormal[2]);  // t = 20: violation interval is open
  for (const auto& column : labeled.columns) EXPECT_EQ(column.size(), 3u);
}

}  // namespace
}  // namespace prepare
