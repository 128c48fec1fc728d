// Unit tests for the episode flight recorder: ring eviction edges, the
// episode-capture lifecycle (pre-context, truncation, drop cap), and
// the bundle invariants replay_episode depends on. Integration tests —
// bit-identical replay of live bundles and run-to-run determinism —
// live in replay_test.cpp / experiment_test.cpp.
#include "obs/flight_recorder.h"

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace prepare {
namespace {

using obs::DecisionConfig;
using obs::EvidenceFrame;
using obs::EvidenceLayout;
using obs::FlightRecorder;
using obs::FlightRecorderConfig;
using obs::PreventionEvidence;

// Tiny geometry: 2 attributes, 3-bin alphabets, 2 horizon steps.
EvidenceLayout tiny_layout() {
  EvidenceLayout layout;
  layout.attributes = 2;
  layout.offsets = {0, 3, 6};
  layout.attribute_names = {"cpu_util", "mem_util"};
  layout.horizon_steps = 2;
  return layout;
}

// A frame whose every field is a deterministic function of `t`, so a
// captured tick can be checked back against its time stamp.
struct FrameData {
  double raw[2];
  std::size_t observed[2];
  std::size_t mode[2];
  double impacts[2];
  double dists[6];
  double horizon[2];
  EvidenceFrame frame;

  explicit FrameData(double t, bool raw_alert = false,
                     bool confirmed = false) {
    raw[0] = t;
    raw[1] = 2.0 * t;
    observed[0] = static_cast<std::size_t>(t) % 3;
    observed[1] = (static_cast<std::size_t>(t) + 1) % 3;
    mode[0] = (static_cast<std::size_t>(t) + 2) % 3;
    mode[1] = static_cast<std::size_t>(t) % 3;
    impacts[0] = t / 10.0;
    impacts[1] = -t / 20.0;
    for (int i = 0; i < 6; ++i) dists[i] = t + i;
    horizon[0] = t / 100.0;
    horizon[1] = t / 200.0;
    frame.t = t;
    frame.abnormal = raw_alert;
    frame.raw_alert = raw_alert;
    frame.confirmed = confirmed;
    frame.score = t - 5.0;
    frame.prior_log_odds = -1.5;
    frame.decomposable = true;
    frame.raw = raw;
    frame.observed_row = observed;
    frame.mode_row = mode;
    frame.impacts = impacts;
    frame.dists = dists;
    frame.horizon_probs = horizon;
    frame.horizon_len = 2;
  }
};

FlightRecorderConfig small_config() {
  FlightRecorderConfig config;
  config.ring_ticks = 4;
  config.pre_context_ticks = 3;
  config.max_bundle_ticks = 6;
  config.max_bundles = 2;
  return config;
}

DecisionConfig small_decision() {
  DecisionConfig decision;
  decision.filter_k = 2;
  decision.filter_w = 3;  // <= pre_context_ticks, checked at set time
  return decision;
}

TEST(FlightRecorder, RingEvictsOldestAndTracksHighWater) {
  FlightRecorder recorder(nullptr, small_config());
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  EXPECT_EQ(recorder.ring_high_water(), 0u);

  for (double t = 0.0; t < 6.0; t += 1.0) {
    FrameData data(t);
    recorder.record_tick(slot, data.frame);
  }
  EXPECT_EQ(recorder.ticks_recorded(), 6u);
  EXPECT_EQ(recorder.ring_high_water(), 4u);  // capped at ring_ticks

  // Open an episode: the pre-context must be the *newest* 3 ring ticks
  // (t = 3, 4, 5) in chronological order — the two oldest were evicted.
  recorder.episode_opened("vm-1", "vm-1#1", 6.0);
  recorder.episode_closed("vm-1", 6.0, "prevented");
  ASSERT_EQ(recorder.bundles().size(), 1u);
  const auto& bundle = recorder.bundles()[0];
  EXPECT_EQ(bundle.pre_ticks, 3u);
  ASSERT_EQ(bundle.ticks.size(), 3u);
  EXPECT_EQ(bundle.ticks[0].t, 3.0);
  EXPECT_EQ(bundle.ticks[1].t, 4.0);
  EXPECT_EQ(bundle.ticks[2].t, 5.0);
}

TEST(FlightRecorder, ShortRingYieldsShortPreContext) {
  FlightRecorder recorder(nullptr, small_config());
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  FrameData d0(0.0);
  recorder.record_tick(slot, d0.frame);
  recorder.episode_opened("vm-1", "vm-1#1", 1.0);
  FrameData d1(1.0, /*raw_alert=*/true);
  recorder.record_tick(slot, d1.frame);
  recorder.episode_closed("vm-1", 1.0, "expired");
  ASSERT_EQ(recorder.bundles().size(), 1u);
  const auto& bundle = recorder.bundles()[0];
  EXPECT_EQ(bundle.pre_ticks, 1u);  // only one tick existed
  ASSERT_EQ(bundle.ticks.size(), 2u);
  EXPECT_EQ(bundle.ticks[0].t, 0.0);
  EXPECT_EQ(bundle.ticks[1].t, 1.0);
  EXPECT_TRUE(bundle.ticks[1].raw_alert);
}

TEST(FlightRecorder, CapturedTickIsAFaithfulDeepCopy) {
  FlightRecorder recorder(nullptr, small_config());
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  recorder.episode_opened("vm-1", "vm-1#1", 7.0);
  FrameData data(7.0, /*raw_alert=*/true, /*confirmed=*/true);
  recorder.record_tick(slot, data.frame);
  recorder.episode_closed("vm-1", 7.0, "prevented");

  ASSERT_EQ(recorder.bundles().size(), 1u);
  const auto& tick = recorder.bundles()[0].ticks.back();
  EXPECT_EQ(tick.t, 7.0);
  EXPECT_TRUE(tick.abnormal);
  EXPECT_TRUE(tick.raw_alert);
  EXPECT_TRUE(tick.confirmed);
  EXPECT_EQ(tick.score, 2.0);
  EXPECT_EQ(tick.prior_log_odds, -1.5);
  EXPECT_TRUE(tick.decomposable);
  ASSERT_EQ(tick.raw.size(), 2u);
  EXPECT_EQ(tick.raw[0], 7.0);
  EXPECT_EQ(tick.raw[1], 14.0);
  EXPECT_EQ(tick.observed_row[0], 7u % 3);
  EXPECT_EQ(tick.mode_row[0], (7u + 2) % 3);
  ASSERT_EQ(tick.dists.size(), 6u);
  EXPECT_EQ(tick.dists[5], 12.0);
  ASSERT_EQ(tick.horizon_probs.size(), 2u);
  EXPECT_EQ(tick.horizon_probs[0], 0.07);
}

TEST(FlightRecorder, EpisodeLongerThanRingIsFullyCapturedUpToCap) {
  FlightRecorder recorder(nullptr, small_config());
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  recorder.episode_opened("vm-1", "vm-1#1", 0.0);
  // 8 episode ticks against ring_ticks=4 and max_bundle_ticks=6: the
  // first 6 are kept, the overflow is counted, never silently lost.
  for (double t = 0.0; t < 8.0; t += 1.0) {
    FrameData data(t, /*raw_alert=*/true);
    recorder.record_tick(slot, data.frame);
  }
  recorder.episode_closed("vm-1", 8.0, "escalated");
  ASSERT_EQ(recorder.bundles().size(), 1u);
  const auto& bundle = recorder.bundles()[0];
  EXPECT_EQ(bundle.pre_ticks, 0u);
  ASSERT_EQ(bundle.ticks.size(), 6u);
  EXPECT_EQ(bundle.ticks.front().t, 0.0);
  EXPECT_EQ(bundle.ticks.back().t, 5.0);
  EXPECT_EQ(bundle.truncated_ticks, 2u);
  EXPECT_EQ(recorder.truncated_ticks_total(), 2u);

  // A close copies only the captured prefix and must leave the open
  // capture's storage whole: the next episode again fills all 6 slots
  // (3 pre-context ticks t=5..7, then t=8..10) and truncates t=11..12.
  recorder.episode_opened("vm-1", "vm-1#2", 8.0);
  for (double t = 8.0; t < 13.0; t += 1.0) {
    FrameData data(t, /*raw_alert=*/true);
    recorder.record_tick(slot, data.frame);
  }
  recorder.episode_closed("vm-1", 13.0, "escalated");
  ASSERT_EQ(recorder.bundles().size(), 2u);
  const auto& second = recorder.bundles()[1];
  EXPECT_EQ(second.pre_ticks, 3u);
  ASSERT_EQ(second.ticks.size(), 6u);
  for (std::size_t s = 0; s < 6; ++s) {
    const double t = 5.0 + static_cast<double>(s);
    const FrameData want(t, /*raw_alert=*/true);
    EXPECT_EQ(second.ticks[s].t, t);
    EXPECT_EQ(second.ticks[s].raw[1], want.raw[1]);
    EXPECT_EQ(second.ticks[s].dists[5], want.dists[5]);
  }
  EXPECT_EQ(second.truncated_ticks, 2u);
  EXPECT_EQ(recorder.truncated_ticks_total(), 4u);

  // The first bundle kept its own ticks.
  const auto& first = recorder.bundles()[0];
  ASSERT_EQ(first.ticks.size(), 6u);
  for (std::size_t s = 0; s < 6; ++s) {
    const double t = static_cast<double>(s);
    const FrameData want(t, /*raw_alert=*/true);
    EXPECT_EQ(first.ticks[s].t, t);
    EXPECT_EQ(first.ticks[s].raw[1], want.raw[1]);
    EXPECT_EQ(first.ticks[s].dists[5], want.dists[5]);
    EXPECT_EQ(first.ticks[s].horizon_probs.size(), 2u);
  }
  EXPECT_EQ(first.truncated_ticks, 2u);
}

TEST(FlightRecorder, BackToBackEpisodesShareRingPreContext) {
  FlightRecorderConfig config = small_config();
  config.max_bundles = 3;
  FlightRecorder recorder(nullptr, config);
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  for (double t = 0.0; t < 4.0; t += 1.0) {
    FrameData data(t);
    recorder.record_tick(slot, data.frame);
  }
  recorder.episode_opened("vm-1", "vm-1#1", 4.0);
  FrameData d4(4.0, true);
  recorder.record_tick(slot, d4.frame);
  recorder.episode_closed("vm-1", 4.0, "prevented");

  // The episode tick kept flowing into the ring too: a second episode
  // opening right after must see t=4 in *its* pre-context.
  recorder.episode_opened("vm-1", "vm-1#2", 5.0);
  FrameData d5(5.0, true);
  recorder.record_tick(slot, d5.frame);
  recorder.episode_closed("vm-1", 5.0, "prevented");

  ASSERT_EQ(recorder.bundles().size(), 2u);
  const auto& second = recorder.bundles()[1];
  EXPECT_EQ(second.trace_id, "vm-1#2");
  EXPECT_EQ(second.pre_ticks, 3u);
  ASSERT_EQ(second.ticks.size(), 4u);
  EXPECT_EQ(second.ticks[0].t, 2.0);
  EXPECT_EQ(second.ticks[1].t, 3.0);
  EXPECT_EQ(second.ticks[2].t, 4.0);  // the first episode's tick
  EXPECT_EQ(second.ticks[3].t, 5.0);

  // Both closes copied 4-tick prefixes; the open capture must still
  // hold all 6 slots for a long episode (t=3..5 pre-context, t=6..8).
  recorder.episode_opened("vm-1", "vm-1#3", 6.0);
  for (double t = 6.0; t < 10.0; t += 1.0) {
    FrameData data(t, /*raw_alert=*/true);
    recorder.record_tick(slot, data.frame);
  }
  recorder.episode_closed("vm-1", 10.0, "escalated");
  ASSERT_EQ(recorder.bundles().size(), 3u);
  const auto& third = recorder.bundles()[2];
  ASSERT_EQ(third.ticks.size(), 6u);
  EXPECT_EQ(third.ticks.front().t, 3.0);
  EXPECT_EQ(third.ticks.back().t, 8.0);
  EXPECT_EQ(third.truncated_ticks, 1u);
}

TEST(FlightRecorder, BundleCapDropsAndCounts) {
  FlightRecorder recorder(nullptr, small_config());  // max_bundles = 2
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  for (int e = 1; e <= 4; ++e) {
    recorder.episode_opened("vm-1", "vm-1#" + std::to_string(e),
                            static_cast<double>(e));
    FrameData data(static_cast<double>(e), true);
    recorder.record_tick(slot, data.frame);
    recorder.episode_closed("vm-1", static_cast<double>(e), "prevented");
  }
  EXPECT_EQ(recorder.bundles_emitted(), 2u);
  EXPECT_EQ(recorder.dropped_total(), 2u);
  // Dropped captures must not leave evidence hooks half-armed: the
  // diagnosis / prevention feeds on a dropped episode are no-ops.
  recorder.record_prevention("vm-1", PreventionEvidence{});
  EXPECT_EQ(recorder.bundles_emitted(), 2u);
}

TEST(FlightRecorder, SuppressedEpisodeLeavesNoBundle) {
  FlightRecorder recorder(nullptr, small_config());
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  recorder.episode_opened("vm-1", "vm-1#1", 0.0);
  FrameData data(0.0, true);
  recorder.record_tick(slot, data.frame);
  recorder.episode_suppressed("vm-1");
  recorder.episode_closed("vm-1", 1.0, "prevented");  // stale: no capture
  EXPECT_EQ(recorder.bundles_emitted(), 0u);
  EXPECT_EQ(recorder.dropped_total(), 0u);  // suppression is not a drop
}

TEST(FlightRecorder, DiagnosisAndPreventionAttachToTheOpenCapture) {
  FlightRecorder recorder(nullptr, small_config());
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  recorder.episode_opened("vm-1", "vm-1#1", 0.0);
  FrameData data(0.0, true, true);
  recorder.record_tick(slot, data.frame);

  const std::size_t ranked[2] = {1, 0};
  const double impacts[2] = {3.5, 1.25};
  recorder.record_diagnosis("vm-1", 0.0, ranked, impacts, 2);
  PreventionEvidence prevention;
  prevention.t = 0.0;
  prevention.phase = 0;
  prevention.attribute = 1;
  prevention.metric_kind = 1;
  prevention.scale_possible = true;
  prevention.applied = 1;
  recorder.record_prevention("vm-1", prevention);
  recorder.episode_closed("vm-1", 0.0, "prevented");

  ASSERT_EQ(recorder.bundles().size(), 1u);
  const auto& bundle = recorder.bundles()[0];
  ASSERT_TRUE(bundle.diagnosis.valid);
  ASSERT_EQ(bundle.diagnosis.ranked.size(), 2u);
  EXPECT_EQ(bundle.diagnosis.ranked[0], 1u);
  EXPECT_EQ(bundle.diagnosis.impacts[0], 3.5);
  ASSERT_EQ(bundle.preventions.size(), 1u);
  EXPECT_EQ(bundle.preventions[0].attribute, 1u);
  EXPECT_EQ(bundle.preventions[0].applied, 1);
}

TEST(FlightRecorder, FinishPublishesRecorderMetrics) {
  obs::MetricsRegistry registry;
  FlightRecorder recorder(&registry, small_config());
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  recorder.episode_opened("vm-1", "vm-1#1", 0.0);
  FrameData data(0.0, true);
  recorder.record_tick(slot, data.frame);
  recorder.episode_closed("vm-1", 0.0, "prevented");
  recorder.finish();
  EXPECT_EQ(registry.counter("recorder.bundles_total")->value(), 1.0);
  EXPECT_EQ(registry.counter("recorder.dropped_total")->value(), 0.0);
  EXPECT_EQ(registry.counter("recorder.ticks_recorded_total")->value(), 1.0);
  EXPECT_EQ(registry.gauge("recorder.ring_high_water")->value(), 1.0);
}

TEST(FlightRecorder, EvidenceJsonlIsWellFormedAndLinked) {
  FlightRecorder recorder(nullptr, small_config());
  recorder.set_decision_config(small_decision());
  const auto slot = recorder.register_vm("vm-1", tiny_layout());
  recorder.episode_opened("vm-1", "vm-1#1", 0.0);
  FrameData data(0.0, true, true);
  recorder.record_tick(slot, data.frame);
  recorder.episode_closed("vm-1", 0.0, "prevented");

  std::ostringstream os;
  recorder.write_evidence_jsonl(os, "test-run");
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"record\":\"episode_evidence\""),
              std::string::npos) << line;
    EXPECT_NE(line.find("\"trace_id\":\"vm-1#1\""), std::string::npos)
        << line;
  }
  EXPECT_EQ(lines, 2u);  // one bundle header + one tick
}

// The lines of `recorder`'s evidence JSONL that carry `trace_id`.
std::vector<std::string> evidence_lines(const FlightRecorder& recorder,
                                        const std::string& trace_id) {
  std::ostringstream os;
  recorder.write_evidence_jsonl(os, "test-run");
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);)
    if (line.find("\"trace_id\":\"" + trace_id + "\"") != std::string::npos)
      lines.push_back(line);
  return lines;
}

// Back-to-back episodes: the second bundle's pre-context (t=2..4) is
// the tail of the first bundle (t=1..4). Its tick records must be the
// bytes a recorder writes that captured the second episode alone.
TEST(FlightRecorder, SharedPreContextExportsTheSameTickRecords) {
  const auto run = [](bool first_episode) {
    FlightRecorder recorder(nullptr, small_config());
    recorder.set_decision_config(small_decision());
    const auto slot = recorder.register_vm("vm-1", tiny_layout());
    for (double t = 0.0; t < 4.0; t += 1.0) {
      FrameData data(t);
      recorder.record_tick(slot, data.frame);
    }
    if (first_episode) recorder.episode_opened("vm-1", "vm-1#1", 4.0);
    FrameData d4(4.0, /*raw_alert=*/true);
    recorder.record_tick(slot, d4.frame);
    if (first_episode) recorder.episode_closed("vm-1", 4.0, "prevented");
    recorder.episode_opened("vm-1", "vm-1#2", 5.0);
    FrameData d5(5.0, /*raw_alert=*/true);
    recorder.record_tick(slot, d5.frame);
    recorder.episode_closed("vm-1", 5.0, "prevented");
    return evidence_lines(recorder, "vm-1#2");
  };
  const std::vector<std::string> shared = run(true);
  ASSERT_EQ(shared.size(), 5u);  // bundle header + t=2, 3, 4, 5
  EXPECT_EQ(shared, run(false));
}

// Two different frames recorded at one t are two ticks: each exports its
// own values, even where the first repeats the previous bundle's tick.
TEST(FlightRecorder, TwoFramesAtOneTimeExportTheirOwnValues) {
  const auto run = [](bool first_episode) {
    FlightRecorder recorder(nullptr, small_config());
    recorder.set_decision_config(small_decision());
    const auto slot = recorder.register_vm("vm-1", tiny_layout());
    for (double t = 0.0; t < 3.0; t += 1.0) {
      FrameData data(t);
      recorder.record_tick(slot, data.frame);
    }
    if (first_episode) recorder.episode_opened("vm-1", "vm-1#1", 3.0);
    FrameData d3(3.0, /*raw_alert=*/true);
    recorder.record_tick(slot, d3.frame);
    if (first_episode) recorder.episode_closed("vm-1", 3.0, "prevented");
    FrameData again(3.0, /*raw_alert=*/true);
    again.raw[0] = 99.0;
    recorder.record_tick(slot, again.frame);
    recorder.episode_opened("vm-1", "vm-1#2", 4.0);
    FrameData d4(4.0, /*raw_alert=*/true);
    recorder.record_tick(slot, d4.frame);
    recorder.episode_closed("vm-1", 4.0, "prevented");
    return evidence_lines(recorder, "vm-1#2");
  };
  const std::vector<std::string> lines = run(true);
  ASSERT_EQ(lines.size(), 5u);  // bundle header + t=2, 3, 3, 4
  EXPECT_NE(lines[2].find("\"t\":3,"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"raw0\":3,"), std::string::npos) << lines[2];
  EXPECT_NE(lines[3].find("\"t\":3,"), std::string::npos) << lines[3];
  EXPECT_NE(lines[3].find("\"raw0\":99,"), std::string::npos) << lines[3];
  EXPECT_EQ(lines, run(false));
}

// 64 attributes of 3 bins: a tick record is longer than JsonObject's
// 4 KB line buffer, so its fields cannot be read back from it. A first
// tick and a repeated one must still export whole.
TEST(FlightRecorder, TickRecordsLongerThanTheLineBufferExportWhole) {
  constexpr std::size_t kAttributes = 64;
  EvidenceLayout layout;
  layout.attributes = kAttributes;
  for (std::size_t i = 0; i <= kAttributes; ++i) layout.offsets.push_back(3 * i);
  for (std::size_t i = 0; i < kAttributes; ++i)
    layout.attribute_names.push_back("attr_" + std::to_string(i));
  layout.horizon_steps = 2;
  struct WideFrame {
    std::vector<double> raw, impacts, dists, horizon;
    std::vector<std::size_t> observed, mode;
    EvidenceFrame frame;
    explicit WideFrame(double t) {
      for (std::size_t i = 0; i < kAttributes; ++i) {
        raw.push_back(t + static_cast<double>(i) / 7.0);
        impacts.push_back((t - static_cast<double>(i)) / 3.0);
        observed.push_back(i % 3);
        mode.push_back((i + 1) % 3);
        for (std::size_t b = 0; b < 3; ++b)
          dists.push_back((t + static_cast<double>(b + 1)) / 11.0);
      }
      horizon = {t / 13.0, t / 17.0};
      frame.t = t;
      frame.score = t / 9.0;
      frame.raw = raw.data();
      frame.observed_row = observed.data();
      frame.mode_row = mode.data();
      frame.impacts = impacts.data();
      frame.dists = dists.data();
      frame.horizon_probs = horizon.data();
      frame.horizon_len = horizon.size();
    }
  };
  const auto run = [&layout](bool first_episode) {
    FlightRecorder recorder(nullptr, small_config());
    recorder.set_decision_config(small_decision());
    const auto slot = recorder.register_vm("vm-1", layout);
    for (double t = 0.0; t < 4.0; t += 1.0) {
      WideFrame data(t);
      recorder.record_tick(slot, data.frame);
    }
    if (first_episode) recorder.episode_opened("vm-1", "vm-1#1", 4.0);
    WideFrame d4(4.0);
    recorder.record_tick(slot, d4.frame);
    if (first_episode) recorder.episode_closed("vm-1", 4.0, "prevented");
    recorder.episode_opened("vm-1", "vm-1#2", 5.0);
    WideFrame d5(5.0);
    recorder.record_tick(slot, d5.frame);
    recorder.episode_closed("vm-1", 5.0, "prevented");
    return std::make_pair(evidence_lines(recorder, "vm-1#1"),
                          evidence_lines(recorder, "vm-1#2"));
  };
  const auto [first, second] = run(true);
  ASSERT_EQ(first.size(), 5u);   // bundle header + t=1..4
  ASSERT_EQ(second.size(), 5u);  // bundle header + t=2..5, t=2..4 repeated
  // The first bundle's t=4 record, and its repeat in the second bundle.
  for (const std::string* line : {&first[4], &second[3]}) {
    EXPECT_GT(line->size(), 4096u);
    EXPECT_EQ(line->front(), '{');
    EXPECT_EQ(line->back(), '}');
    EXPECT_NE(line->find("\"t\":4,"), std::string::npos);
    for (std::size_t i = 0; i < kAttributes; ++i)
      EXPECT_NE(line->find("\"raw" + std::to_string(i) + "\":"),
                std::string::npos)
          << "raw" << i;
    EXPECT_NE(line->find("\"hp2\":"), std::string::npos);
  }
  EXPECT_EQ(second, run(false).second);
}

TEST(FlightRecorder, UnknownVmHooksAreIgnored) {
  FlightRecorder recorder(nullptr, small_config());
  recorder.set_decision_config(small_decision());
  recorder.episode_opened("ghost", "ghost#1", 0.0);
  recorder.episode_closed("ghost", 0.0, "prevented");
  recorder.episode_suppressed("ghost");
  recorder.record_prevention("ghost", PreventionEvidence{});
  EXPECT_EQ(recorder.bundles_emitted(), 0u);
  EXPECT_EQ(recorder.dropped_total(), 0u);
}

}  // namespace
}  // namespace prepare
