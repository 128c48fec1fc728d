#include "obs/stage_profiler.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace prepare {
namespace obs {
namespace {

TEST(StageProfiler, DisabledWithNullRegistry) {
  EXPECT_EQ(stage_histogram(nullptr, kStageDiscretize), nullptr);
  // Timing without a registry is a no-op, not a crash.
  { ScopedTimer timer(stage_histogram(nullptr, kStageDiscretize)); }
}

TEST(StageProfiler, StageRegistersHistogramUnderCanonicalName) {
  MetricsRegistry registry;
  Histogram* stage = stage_histogram(&registry, kStageTanClassify);
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage,
            registry.histogram(stage_metric_name(kStageTanClassify)));
  EXPECT_EQ(stage_metric_name("tan_classify"), "stage.tan_classify.seconds");
}

TEST(StageProfiler, RepeatedStageLookupReturnsSameHistogram) {
  MetricsRegistry registry;
  Histogram* a = stage_histogram(&registry, kStagePrevention);
  Histogram* b = stage_histogram(&registry, kStagePrevention);
  EXPECT_EQ(a, b);
  ASSERT_EQ(registry.histograms().size(), 1u);
  EXPECT_EQ(registry.histograms().begin()->first,
            stage_metric_name(kStagePrevention));
}

TEST(ScopedTimer, RecordsOneSamplePerScope) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("stage.x.seconds");
  { ScopedTimer timer(h); }
  { ScopedTimer timer(h); }
  EXPECT_EQ(h->count(), 2u);
  EXPECT_GE(h->min(), 0.0);
}

TEST(ScopedTimer, StopIsIdempotent) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("stage.x.seconds");
  {
    ScopedTimer timer(h);
    timer.stop();
    timer.stop();  // second stop and the destructor add nothing
  }
  EXPECT_EQ(h->count(), 1u);
}

TEST(ScopedTimer, NullHistogramIsNoOp) {
  ScopedTimer timer(nullptr);
  timer.stop();  // no crash
}

TEST(ScopedTimer, NestedTimersEachRecordTheirOwnSpan) {
  MetricsRegistry registry;
  Histogram* outer = registry.histogram("stage.outer.seconds");
  Histogram* inner = registry.histogram("stage.inner.seconds");
  {
    ScopedTimer a(outer);
    {
      ScopedTimer b(inner);
    }
  }
  EXPECT_EQ(outer->count(), 1u);
  EXPECT_EQ(inner->count(), 1u);
  // The inner span is contained in the outer one, not subtracted.
  EXPECT_GE(outer->max(), inner->max());
}

TEST(StageProfiler, PipelineStageListIsCanonical) {
  ASSERT_EQ(kPipelineStages.size(), 7u);
  EXPECT_STREQ(kPipelineStages.front(), "monitor_sample");
  EXPECT_STREQ(kPipelineStages.back(), "prevention");
}

TEST(StageReport, ListsEveryTimedStage) {
  MetricsRegistry registry;
  for (const char* stage : kPipelineStages) {
    ScopedTimer timer(stage_histogram(&registry, stage));
  }
  std::ostringstream os;
  write_stage_report(registry, os);
  const std::string report = os.str();
  for (const char* stage : kPipelineStages)
    EXPECT_NE(report.find(stage), std::string::npos)
        << "missing stage " << stage << " in:\n" << report;
}

TEST(StageReport, IgnoresNonStageHistograms) {
  MetricsRegistry registry;
  registry.histogram("latency.seconds")->record(1e-3);
  std::ostringstream os;
  write_stage_report(registry, os);
  EXPECT_EQ(os.str().find("latency"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace prepare
