// End-to-end acceptance test for alert-lifecycle tracing: runs a full
// fault-injection scenario with the SpanTracer attached and checks the
// whole observability contract — complete causal chains, ledger/span
// consistency, schema validation via tools/check_obs_schema.py, and
// a span set that is the same on every run of one seed.
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "obs/trace_export.h"

namespace prepare {
namespace {

using obs::EpisodeOutcome;
using obs::SpanStage;
using obs::SpanTracer;

ScenarioConfig scenario_config() {
  ScenarioConfig config;
  config.fault = FaultKind::kMemoryLeak;
  config.scheme = Scheme::kPrepare;
  config.seed = 11;
  return config;
}

class AlertLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = scenario_config();
    config_.metrics = &registry_;
    config_.tracer = &tracer_;
    result_ = run_scenario(config_);
  }

  ScenarioConfig config_;
  obs::MetricsRegistry registry_;
  SpanTracer tracer_{&registry_};
  ScenarioResult result_;
};

TEST_F(AlertLifecycleTest, EveryEpisodeHasACompleteTerminatedSpanChain) {
  const auto episodes = tracer_.episodes();
  ASSERT_FALSE(episodes.empty()) << "the scenario produced no alerts";
  for (const auto* episode : episodes) {
    SCOPED_TRACE(episode->trace_id);
    EXPECT_TRUE(episode->closed);
    ASSERT_FALSE(episode->spans.empty());
    EXPECT_EQ(episode->spans.front().stage, SpanStage::kRawAlert);
    EXPECT_EQ(episode->spans.front().parent_id, "");
    for (std::size_t i = 0; i < episode->spans.size(); ++i) {
      const auto& span = episode->spans[i];
      EXPECT_EQ(span.span_id,
                episode->trace_id + ":" + std::to_string(i));
      if (i > 0) {
        EXPECT_EQ(span.parent_id, episode->spans[i - 1].span_id);
        EXPECT_GE(span.t_start, episode->spans[i - 1].t_start);
      }
      EXPECT_GE(span.t_end, span.t_start);
      // Terminal spans terminate: nothing may follow one.
      if (i + 1 < episode->spans.size()) {
        EXPECT_FALSE(span_stage_terminal(span.stage));
      }
    }
    EXPECT_TRUE(span_stage_terminal(episode->spans.back().stage));
  }
}

TEST_F(AlertLifecycleTest, LedgerCountersMatchSpanDerivedOutcomes) {
  std::map<EpisodeOutcome, std::size_t> derived;
  for (const auto* episode : tracer_.episodes()) {
    ASSERT_TRUE(episode->closed);
    ++derived[episode->outcome];
  }
  const auto& ledger = tracer_.ledger();
  EXPECT_EQ(ledger.prevented, derived[EpisodeOutcome::kPrevented]);
  EXPECT_EQ(ledger.false_alarm, derived[EpisodeOutcome::kFalseAlarm]);
  EXPECT_EQ(ledger.escalated, derived[EpisodeOutcome::kEscalated]);
  EXPECT_EQ(ledger.expired, derived[EpisodeOutcome::kExpired]);
  // The published counters mirror the ledger exactly.
  EXPECT_EQ(registry_.counter("alert.outcome.prevented")->value(),
            static_cast<double>(ledger.prevented));
  EXPECT_EQ(registry_.counter("alert.outcome.false_alarm")->value(),
            static_cast<double>(ledger.false_alarm));
  EXPECT_EQ(registry_.counter("alert.outcome.escalated")->value(),
            static_cast<double>(ledger.escalated));
  EXPECT_EQ(registry_.counter("alert.outcome.expired")->value(),
            static_cast<double>(ledger.expired));
  EXPECT_EQ(registry_.counter("alert.outcome.missed")->value(),
            static_cast<double>(ledger.missed));
  EXPECT_EQ(registry_.counter("alert.episodes_total")->value(),
            static_cast<double>(tracer_.episodes().size()));
}

TEST_F(AlertLifecycleTest, EmittedTracePassesSchemaCheckWithOutcomes) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 not available";
  const std::string path =
      ::testing::TempDir() + "alert_lifecycle_trace.jsonl";
  {
    std::ofstream os(path);
    ASSERT_TRUE(os.is_open());
    obs::RunInfo info;
    info.run_id = "alert-lifecycle-test";
    info.sim_time_end = config_.run_end;
    obs::write_run_header(os, info);
    result_.events.to_jsonl(os, info.run_id);
    tracer_.write_spans_jsonl(os, info.run_id);
    obs::write_metrics_jsonl(os, registry_, info.run_id, config_.run_end);
  }
  const std::string cmd = "python3 " PREPARE_SOURCE_DIR
                          "/tools/check_obs_schema.py " +
                          path + " --require-outcomes > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "schema check failed; inspect " << path;
}

TEST(AlertLifecycleRuns, SpanSetIsIdenticalAcrossRuns) {
  // Two runs of one seed must not differ in a single byte of the span
  // set: same ids, same attributes, same sim timestamps.
  std::string spans_by_run[2];
  for (std::string& spans : spans_by_run) {
    ScenarioConfig config = scenario_config();
    SpanTracer tracer;
    config.tracer = &tracer;
    run_scenario(config);
    std::ostringstream os;
    tracer.write_spans_jsonl(os, "repeat-run");
    spans = os.str();
  }
  EXPECT_FALSE(spans_by_run[0].empty());
  EXPECT_EQ(spans_by_run[0], spans_by_run[1]);
}

}  // namespace
}  // namespace prepare
