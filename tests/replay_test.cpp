#include "core/replay.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/span_tracer.h"

namespace prepare {
namespace {

const ScenarioResult& leak_trace() {
  static const ScenarioResult trace = [] {
    ScenarioConfig config;
    config.app = AppKind::kSystemS;
    config.fault = FaultKind::kMemoryLeak;
    config.scheme = Scheme::kNoIntervention;
    config.seed = 7;
    return run_scenario(config);
  }();
  return trace;
}

TEST(Replay, ConfirmsTheFaultyVmAroundTheSecondInjection) {
  ReplayConfig config;
  const auto report = replay_trace(leak_trace().store, leak_trace().slo,
                                   config);
  ASSERT_GT(report.confirmed_alerts, 0u);
  // The first confirmed alert must target the faulty VM, after the
  // second injection started and no later than shortly after the
  // violation begins.
  double violation2 = 1e18;
  for (const auto& iv : leak_trace().slo.intervals())
    if (iv.start > 880.0) {
      violation2 = iv.start;
      break;
    }
  const ReplayAlert* first = nullptr;
  for (const auto& alert : report.alerts)
    if (alert.confirmed) {
      first = &alert;
      break;
    }
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->vm, leak_trace().faulty_vm);
  EXPECT_GE(first->time, 900.0);
  EXPECT_LE(first->time, violation2 + 15.0);
}

TEST(Replay, AlertsCarryAttribution) {
  const auto report =
      replay_trace(leak_trace().store, leak_trace().slo, ReplayConfig{});
  for (const auto& alert : report.alerts) {
    if (!alert.confirmed) continue;
    EXPECT_FALSE(alert.top_metrics.empty());
  }
}

TEST(Replay, CountersConsistent) {
  const auto report =
      replay_trace(leak_trace().store, leak_trace().slo, ReplayConfig{});
  std::size_t confirmed = 0;
  double prev = -1.0;
  for (const auto& alert : report.alerts) {
    EXPECT_GE(alert.time, prev);  // chronological (ties across VMs ok)
    prev = alert.time;
    if (alert.confirmed) ++confirmed;
  }
  EXPECT_EQ(confirmed, report.confirmed_alerts);
  EXPECT_GE(report.raw_alerts, report.confirmed_alerts > 0 ? 1u : 0u);
}

TEST(Replay, SubsetOfVms) {
  const auto report =
      replay_trace(leak_trace().store, leak_trace().slo, ReplayConfig{},
                   {leak_trace().faulty_vm});
  for (const auto& alert : report.alerts)
    EXPECT_EQ(alert.vm, leak_trace().faulty_vm);
  EXPECT_GT(report.confirmed_alerts, 0u);
}

TEST(Replay, FaultFreeTraceNeverAlerts) {
  // A trace with no fault anywhere: training has no abnormal labels, so
  // the supervised models are suppressed and the replay must be silent.
  ScenarioConfig config;
  config.app = AppKind::kSystemS;  // steady source: no workload-induced
                                   // violations, unlike bursty RUBiS
  config.fault = FaultKind::kMemoryLeak;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 8;
  config.fault1_start = 5000.0;  // neither injection ever happens
  config.fault2_start = 10000.0;
  config.run_end = 1200.0;
  const auto trace = run_scenario(config);
  EXPECT_DOUBLE_EQ(trace.slo.total_violation_time(), 0.0);
  const auto report = replay_trace(trace.store, trace.slo, ReplayConfig{});
  EXPECT_EQ(report.confirmed_alerts, 0u);
  EXPECT_EQ(report.raw_alerts, 0u);
  EXPECT_LT(report.first_confirmed, 0.0);
}

TEST(Replay, EmptyStoreThrows) {
  MetricStore store;
  SloLog slo;
  EXPECT_THROW(replay_trace(store, slo, ReplayConfig{}), CheckFailure);
}

// ------------------------------------------------ episode bundle replay

// Runs one faulted PREPARE scenario with a flight recorder attached and
// hands back the recorder's evidence. Serialized to JSONL for the
// determinism comparison; the bundles themselves for replay.
struct RecordedRun {
  obs::SpanTracer tracer;
  obs::FlightRecorder recorder;
  std::string evidence_jsonl;
};

void record_run(std::size_t seed, RecordedRun* out) {
  ScenarioConfig config;
  config.app = AppKind::kSystemS;
  config.fault = FaultKind::kMemoryLeak;
  config.scheme = Scheme::kPrepare;
  config.seed = seed;
  config.tracer = &out->tracer;
  config.recorder = &out->recorder;
  run_scenario(config);
  std::ostringstream os;
  out->recorder.write_evidence_jsonl(os, "replay-test");
  out->evidence_jsonl = os.str();
}

TEST(EpisodeReplay, EveryLiveBundleReplaysBitIdentically) {
  RecordedRun run;
  record_run(/*seed=*/7, &run);
  ASSERT_GT(run.recorder.bundles_emitted(), 0u)
      << "the faulted run must capture at least one episode";
  for (const auto& bundle : run.recorder.bundles()) {
    const auto result = replay_episode(bundle);
    EXPECT_TRUE(result.ok)
        << bundle.trace_id << ": " << result.first_mismatch;
    EXPECT_GT(result.ticks_checked, 0u) << bundle.trace_id;
    EXPECT_EQ(result.score_mismatches, 0u) << bundle.trace_id;
    EXPECT_EQ(result.filter_mismatches, 0u) << bundle.trace_id;
    EXPECT_EQ(result.prevention_mismatches, 0u) << bundle.trace_id;
  }
}

TEST(EpisodeReplay, WhatIfUnderTheLivePolicyNeverDiverges) {
  RecordedRun run;
  record_run(/*seed=*/7, &run);
  ASSERT_GT(run.recorder.bundles_emitted(), 0u);
  for (const auto& bundle : run.recorder.bundles()) {
    const auto same =
        what_if_policy(bundle, bundle.decision.prevention_mode);
    EXPECT_EQ(same.diverged, 0u)
        << bundle.trace_id << ": " << same.detail;
    EXPECT_EQ(same.compared, same.decisions.size());
  }
}

TEST(EpisodeReplay, WhatIfReportsConsistentDivergenceCounts) {
  RecordedRun run;
  record_run(/*seed=*/7, &run);
  ASSERT_GT(run.recorder.bundles_emitted(), 0u);
  for (const auto& bundle : run.recorder.bundles()) {
    for (int policy = 0; policy <= 2; ++policy) {
      const auto result = what_if_policy(bundle, policy);
      EXPECT_EQ(result.policy, policy);
      std::size_t diverged = 0;
      for (const auto& [live, cf] : result.decisions)
        if (live != cf) ++diverged;
      EXPECT_EQ(result.diverged, diverged) << bundle.trace_id;
      EXPECT_EQ(result.diverged == 0, result.detail.empty())
          << bundle.trace_id << ": " << result.detail;
    }
  }
}

TEST(EpisodeReplay, BundlesAreByteIdenticalAcrossRuns) {
  RecordedRun first, second;
  record_run(/*seed=*/7, &first);
  record_run(/*seed=*/7, &second);
  ASSERT_GT(first.recorder.bundles_emitted(), 0u);
  EXPECT_EQ(first.recorder.bundles_emitted(),
            second.recorder.bundles_emitted());
  EXPECT_EQ(first.recorder.ticks_recorded(),
            second.recorder.ticks_recorded());
  EXPECT_EQ(first.evidence_jsonl, second.evidence_jsonl);
}

TEST(EpisodeReplay, TamperedEvidenceIsCaughtNotRubberStamped) {
  RecordedRun run;
  record_run(/*seed=*/7, &run);
  ASSERT_GT(run.recorder.bundles_emitted(), 0u);
  auto bundle = run.recorder.bundles()[0];
  ASSERT_FALSE(bundle.ticks.empty());
  // Flip one captured per-attribute contribution: the re-summed score
  // no longer matches the captured score bit-for-bit.
  ASSERT_TRUE(bundle.ticks[0].decomposable);
  ASSERT_FALSE(bundle.ticks[0].impacts.empty());
  bundle.ticks[0].impacts[0] += 0.125;
  const auto result = replay_episode(bundle);
  EXPECT_FALSE(result.ok);
  EXPECT_GT(result.score_mismatches, 0u);
  EXPECT_FALSE(result.first_mismatch.empty());
}

}  // namespace
}  // namespace prepare
