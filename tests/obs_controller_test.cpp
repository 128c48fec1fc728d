// Integration: the observability layer threaded through a full scenario
// run — every pipeline stage histogram fills, the counters agree with
// the event log, and attaching a registry does not change the outcome.
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "obs/stage_profiler.h"
#include "obs/trace_export.h"

namespace prepare {
namespace {

ScenarioConfig base_config(Scheme scheme) {
  ScenarioConfig c;
  c.app = AppKind::kSystemS;
  c.fault = FaultKind::kMemoryLeak;
  c.scheme = scheme;
  c.seed = 11;
  c.prepare.prevention.mode = PreventionMode::kScalingOnly;
  return c;
}

TEST(ObsIntegration, EverySevenPipelineStageHistogramFills) {
  obs::MetricsRegistry registry;
  auto config = base_config(Scheme::kPrepare);
  config.metrics = &registry;
  run_scenario(config);
  for (const char* stage : obs::kPipelineStages) {
    const auto name = obs::stage_metric_name(stage);
    const auto it = registry.histograms().find(name);
    ASSERT_NE(it, registry.histograms().end()) << "missing " << name;
    EXPECT_GT(it->second.count(), 0u) << name << " never recorded";
    EXPECT_GE(it->second.min(), 0.0);
  }
}

TEST(ObsIntegration, CountersAgreeWithTheEventLog) {
  obs::MetricsRegistry registry;
  auto config = base_config(Scheme::kPrepare);
  config.metrics = &registry;
  auto result = run_scenario(config);

  const double raw = registry.counter("controller.raw_alerts_total")->value();
  const double confirmed =
      registry.counter("controller.confirmed_alerts_total")->value();
  EXPECT_EQ(raw, static_cast<double>(result.events.count_of(EventKind::kAlert)));
  EXPECT_EQ(confirmed, static_cast<double>(
                           result.events.count_of(EventKind::kAlertConfirmed)));
  EXPECT_GT(confirmed, 0.0);  // the memleak run must confirm alerts
  EXPECT_GE(raw, confirmed);

  EXPECT_GT(registry.counter("prevention.actions_total")->value(), 0.0);
  EXPECT_EQ(registry.counter("events.recorded_total")->value(),
            static_cast<double>(result.events.events().size()));
  EXPECT_GT(registry.counter("run.samples_total")->value(), 0.0);
  EXPECT_GT(registry.counter("run.ticks_total")->value(),
            registry.counter("run.samples_total")->value());
  EXPECT_DOUBLE_EQ(registry.gauge("run.sim_time_s")->value(),
                   config.run_end);
}

TEST(ObsIntegration, InstrumentationDoesNotChangeTheOutcome) {
  auto bare = run_scenario(base_config(Scheme::kPrepare));
  obs::MetricsRegistry registry;
  auto config = base_config(Scheme::kPrepare);
  config.metrics = &registry;
  auto instrumented = run_scenario(config);
  EXPECT_DOUBLE_EQ(instrumented.violation_time, bare.violation_time);
  EXPECT_EQ(instrumented.events.events().size(), bare.events.events().size());
  EXPECT_EQ(instrumented.faulty_vm, bare.faulty_vm);
}

// The reactive round times its stages too, and pays only for what its
// fallback reads: it discretizes each trained VM's latest sample once
// per fallback round, to classify it, and never looks ahead.
TEST(ObsIntegration, ReactiveControllerTimesItsStagesToo) {
  obs::MetricsRegistry registry;
  auto config = base_config(Scheme::kReactive);
  config.metrics = &registry;
  const ScenarioResult result = run_scenario(config);
  for (const char* stage :
       {obs::kStageMonitorSample, obs::kStageDiscretize,
        obs::kStageCauseInference, obs::kStagePrevention}) {
    const auto it =
        registry.histograms().find(obs::stage_metric_name(stage));
    ASSERT_NE(it, registry.histograms().end()) << stage;
    EXPECT_GT(it->second.count(), 0u) << stage;
  }
  const auto samples = [&](const char* stage) -> std::uint64_t {
    const auto it = registry.histograms().find(obs::stage_metric_name(stage));
    return it == registry.histograms().end() ? 0 : it->second.count();
  };
  const auto fallback_rounds = static_cast<std::uint64_t>(
      registry.counter("controller.reactive_fallbacks_total")->value());
  EXPECT_GT(fallback_rounds, 0u);
  EXPECT_EQ(samples(obs::kStageDiscretize), samples(obs::kStageTanClassify));
  // Every VM of the app has training samples, so every VM trains.
  EXPECT_EQ(samples(obs::kStageDiscretize), fallback_rounds * result.vm_count);
  EXPECT_EQ(samples(obs::kStageMarkovLookahead), 0u);
}

TEST(ObsIntegration, FullTraceExportIsWellFormedJsonl) {
  obs::MetricsRegistry registry;
  auto config = base_config(Scheme::kPrepare);
  config.metrics = &registry;
  auto result = run_scenario(config);

  std::ostringstream os;
  obs::RunInfo info;
  info.run_id = "test-run";
  info.sim_time_end = config.run_end;
  obs::write_run_header(os, info);
  result.events.to_jsonl(os, info.run_id);
  obs::write_metrics_jsonl(os, registry, info.run_id, config.run_end);

  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"record\":\""), std::string::npos) << line;
  }
  // Header + at least one event and one metric per instrument family.
  EXPECT_GT(lines, 1 + result.events.events().size());
}

}  // namespace
}  // namespace prepare
