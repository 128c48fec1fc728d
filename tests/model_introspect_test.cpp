// Model-introspection layer tests: golden calibration math, entropy
// probes on known transition matrices, path-prediction bit-identity,
// drift triggering under a mid-run distribution shift, and byte-identity
// of the exported introspection records across runs of one seed.
#include "obs/model_introspect.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "models/discretizer.h"
#include "models/markov_bank.h"
#include "models/tan.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "temp_path.h"

namespace prepare {
namespace {

using obs::IntrospectConfig;
using obs::MetricsRegistry;
using obs::ModelIntrospect;

std::vector<std::size_t> random_sequence(std::size_t n, std::size_t k,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> seq;
  for (std::size_t i = 0; i < n; ++i)
    seq.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(k) - 1)));
  return seq;
}

// ---- calibration golden math ----

TEST(ModelIntrospect, GoldenBrierLogLossAndBins) {
  ModelIntrospect mi;
  mi.set_horizon(2, 5.0);

  // Round 0: predict p(h=1)=0.2, p(h=2)=0.8.
  mi.begin_round(0.0, false);
  mi.record_horizon_probs({0.2, 0.8});
  // Round 1 realizes abnormal -> resolves round 0's h=1 sample.
  mi.begin_round(5.0, true);
  mi.record_horizon_probs({0.3, 0.6});
  // Round 2 normal -> resolves round 0's h=2 and round 1's h=1.
  mi.begin_round(10.0, false);
  // Round 3 normal -> resolves round 1's h=2 (round 2 recorded nothing).
  mi.begin_round(15.0, false);
  mi.finish(20.0);

  const auto& stats = mi.horizon_stats();
  ASSERT_EQ(stats.size(), 2u);

  // Horizon step 1 resolved (p=0.2, hit) and (p=0.3, miss).
  EXPECT_EQ(stats[0].n, 2u);
  EXPECT_EQ(stats[0].hits, 1u);
  EXPECT_DOUBLE_EQ(stats[0].p_sum, 0.2 + 0.3);
  EXPECT_DOUBLE_EQ(stats[0].brier_sum,
                   (0.2 - 1.0) * (0.2 - 1.0) + 0.3 * 0.3);
  EXPECT_DOUBLE_EQ(stats[0].logloss_sum, -std::log(0.2) - std::log(0.7));

  // Horizon step 2 resolved (p=0.8, miss) and (p=0.6, miss).
  EXPECT_EQ(stats[1].n, 2u);
  EXPECT_EQ(stats[1].hits, 0u);
  EXPECT_DOUBLE_EQ(stats[1].brier_sum, 0.8 * 0.8 + 0.6 * 0.6);
  EXPECT_DOUBLE_EQ(stats[1].logloss_sum, -std::log(0.2) - std::log(0.4));

  // Reliability bins (10 buckets): 0.2 -> 2, 0.3 -> 3, 0.8 -> 8, 0.6 -> 6.
  ASSERT_EQ(stats[0].bin_n.size(), 10u);
  EXPECT_EQ(stats[0].bin_n[2], 1u);
  EXPECT_EQ(stats[0].bin_hits[2], 1u);
  EXPECT_EQ(stats[0].bin_n[3], 1u);
  EXPECT_EQ(stats[0].bin_hits[3], 0u);
  EXPECT_EQ(stats[1].bin_n[8], 1u);
  EXPECT_EQ(stats[1].bin_n[6], 1u);
  EXPECT_EQ(mi.resolved_samples(), 4u);
}

TEST(ModelIntrospect, ProbabilityEdgesLandInOuterBins) {
  ModelIntrospect mi;
  mi.set_horizon(1, 5.0);
  mi.begin_round(0.0, false);
  mi.record_horizon_probs({0.0});
  mi.record_horizon_probs({1.0});
  mi.begin_round(5.0, true);
  mi.finish(10.0);

  const auto& stats = mi.horizon_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].n, 2u);
  EXPECT_EQ(stats[0].bin_n[0], 1u);  // p = 0.0
  EXPECT_EQ(stats[0].bin_n[9], 1u);  // p = 1.0 clamps into the last bin
  // Both samples resolve against the realized-abnormal round: the p=0
  // hard miss is clamped at -log(eps) instead of infinity, the p=1
  // perfect hit costs -log(1-eps).
  const double eps = mi.config().logloss_epsilon;
  EXPECT_DOUBLE_EQ(stats[0].logloss_sum,
                   -std::log(eps) - std::log(1.0 - eps));
}

TEST(ModelIntrospect, CalibrationStrideGatesSampledRounds) {
  IntrospectConfig cfg;
  cfg.calibration_stride = 3;
  ModelIntrospect mi(nullptr, cfg);
  mi.set_horizon(2, 5.0);
  // The stride is anchored at the first round after set_horizon():
  // rounds 0, 3, 6, ... are sampled calibration rounds, the rest keep
  // the bare prediction cost.
  std::vector<bool> due;
  for (std::size_t r = 0; r < 7; ++r) {
    mi.begin_round(static_cast<double>(r) * 5.0, false);
    due.push_back(mi.calibration_due());
    if (mi.calibration_due()) mi.record_horizon_probs({0.2, 0.4});
  }
  const std::vector<bool> expected = {true, false, false, true,
                                      false, false, true};
  EXPECT_EQ(due, expected);
  mi.finish(40.0);
  // Sampled rounds 0 and 3 fully resolved within the run; round 6's
  // block is an unresolved tail. Unsampled rounds left their ring slots
  // empty and contributed nothing.
  const auto& stats = mi.horizon_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].n, 2u);
  EXPECT_EQ(stats[1].n, 2u);
}

TEST(ModelIntrospect, UnresolvedTailIsDiscarded) {
  ModelIntrospect mi;
  mi.set_horizon(4, 5.0);
  mi.begin_round(0.0, false);
  mi.record_horizon_probs({0.1, 0.2, 0.3, 0.4});
  mi.begin_round(5.0, false);  // resolves only h=1
  mi.finish(10.0);
  const auto& stats = mi.horizon_stats();
  EXPECT_EQ(stats[0].n, 1u);
  EXPECT_EQ(stats[1].n, 0u);  // target rounds past run end never realize
  EXPECT_EQ(stats[2].n, 0u);
  EXPECT_EQ(stats[3].n, 0u);
}

// ---- model-state probes ----

TEST(ModelIntrospect, MarkovRowEntropyOnKnownMatrix) {
  // Alternating 0,1,0,1,... over a 3-symbol alphabet: rows 0 and 1 are
  // occupied with near-deterministic transitions, row 2 never occurs.
  MarkovBank chain(1, {3});
  std::vector<std::size_t> seq;
  for (std::size_t i = 0; i < 100; ++i) seq.push_back(i % 2);
  chain.train({seq});

  const auto stats = chain.row_stats(0);
  EXPECT_EQ(stats.rows, 3u);
  EXPECT_EQ(stats.occupied_rows, 2u);

  // Expected entropy from the public smoothed-transition accessor.
  double expected_sum = 0.0, expected_max = 0.0;
  for (std::size_t from = 0; from < 2; ++from) {
    double h = 0.0;
    for (std::size_t to = 0; to < 3; ++to) {
      const double p = chain.transition(0, {from}, BinIndex{to}).value();
      h -= p * std::log(p);
    }
    expected_sum += h;
    expected_max = std::max(expected_max, h);
  }
  EXPECT_DOUBLE_EQ(stats.entropy_sum, expected_sum);
  EXPECT_DOUBLE_EQ(stats.entropy_max, expected_max);
  // Near-deterministic rows are far below the log(3) uniform ceiling.
  EXPECT_LT(stats.entropy_max, 0.5 * std::log(3.0));

  // A uniformly random sequence pushes every row toward log(3).
  MarkovBank uniform(1, {3});
  uniform.train({random_sequence(5000, 3, 42)});
  const auto ustats = uniform.row_stats(0);
  EXPECT_EQ(ustats.occupied_rows, 3u);
  EXPECT_GT(ustats.entropy_sum / 3.0, 0.95 * std::log(3.0));
}

TEST(ModelIntrospect, ProbeGaugesPublish) {
  MetricsRegistry registry;
  ModelIntrospect mi(&registry);
  mi.set_horizon(2, 5.0);
  mi.set_attribute_names({"cpu", "mem"});
  mi.begin_probe(100.0);
  mi.probe_markov(0, 0.25, 0.5, 0.75);
  mi.probe_markov(1, 0.75, 1.0, 0.25);
  mi.probe_classifier(3.5, 2.0);
  mi.end_probe();

  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("model.markov.row_entropy.mean"), 0.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("model.markov.row_entropy.max"), 1.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("model.markov.row_occupancy.ratio"), 0.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("model.tan.cpt_support.min"), 3.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("model.tan.log_odds.spread"), 2.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("model.markov.cpu.row_entropy"), 0.25);
  EXPECT_DOUBLE_EQ(snap.gauges.at("model.markov.mem.row_occupancy"), 0.25);
  EXPECT_DOUBLE_EQ(snap.counters.at("model.probe.runs_total"), 1.0);
}

// ---- path prediction bit-identity ----

// The horizon path's per-step mode rows are the modes of the
// predictions of every shorter horizon, for every attribute.
TEST(ModelIntrospect, PredictPathBitIdenticalToPredictInto) {
  constexpr std::size_t kSteps = 24;
  const std::vector<std::size_t> alphabets = {4, 3, 5};
  std::vector<std::vector<std::size_t>> seqs;
  for (std::size_t i = 0; i < alphabets.size(); ++i)
    seqs.push_back(random_sequence(600, alphabets[i], 7 + i));
  for (std::size_t order : {1u, 2u, 3u}) {
    MarkovBank bank(order, alphabets);
    bank.train(seqs);
    std::vector<Distribution> dists;
    std::vector<std::size_t> mode_row, modes;
    bank.predict_into(TickIndex{kSteps}, &dists, &mode_row, &modes);
    ASSERT_EQ(modes.size(), kSteps * alphabets.size());
    for (std::size_t s = 0; s < kSteps; ++s) {
      const auto single = bank.predict(TickIndex{s + 1});
      for (std::size_t i = 0; i < alphabets.size(); ++i)
        EXPECT_EQ(modes[s * alphabets.size() + i], single[i].mode())
            << "order " << order << " step " << s + 1 << " attribute " << i;
    }
  }
}

// ---- classifier score fast path ----

LabeledDataset synthetic_dataset() {
  LabeledDataset d;
  d.alphabet.assign(4, 3);
  Rng rng(5);
  for (std::size_t i = 0; i < 300; ++i) {
    const bool abnormal = i % 5 == 0;
    std::vector<std::size_t> row;
    for (std::size_t a = 0; a < 4; ++a) {
      const auto hi = static_cast<std::int64_t>(abnormal ? 2 : 1);
      row.push_back(static_cast<std::size_t>(rng.uniform_int(0, hi)));
    }
    d.rows.push_back(std::move(row));
    d.abnormal.push_back(abnormal);
  }
  return d;
}

TEST(ModelIntrospect, ScoreMatchesClassifyExactly) {
  const auto data = synthetic_dataset();
  TanClassifier tan;
  tan.train(data);
  TanClassifier nb(1.0, /*tree=*/false);
  nb.train(data);
  for (std::size_t i = 0; i < data.rows.size(); i += 17) {
    EXPECT_EQ(tan.score(data.rows[i]).value(),
              tan.classify(data.rows[i]).score.value());
    EXPECT_EQ(nb.score(data.rows[i]).value(),
              nb.classify(data.rows[i]).score.value());
  }
  const auto cpt = tan.cpt_stats();
  // Raw (unsmoothed) support: unseen (value, parent, class) cells are
  // legitimately zero — that sparsity is exactly what the gauge tracks.
  EXPECT_GE(cpt.support_min, 0.0);
  EXPECT_GT(cpt.support_mean, cpt.support_min);
  EXPECT_GT(cpt.log_odds_spread, 0.0);
}

// ---- discretizer fit counts ----

TEST(ModelIntrospect, DiscretizerFitCountsCoverTrainingData) {
  Discretizer disc(5);
  std::vector<double> values;
  Rng rng(9);
  for (std::size_t i = 0; i < 200; ++i) values.push_back(rng.gaussian(50, 10));
  disc.fit(values);
  const auto& counts = disc.fit_counts();
  ASSERT_EQ(counts.size(), disc.bins());
  double total = 0.0;
  for (double c : counts) total += c;
  EXPECT_DOUBLE_EQ(total, 200.0);
  // Counts match a replay of discretize() over the training values.
  std::vector<double> replay(disc.bins(), 0.0);
  for (double v : values) replay[disc.discretize(v)] += 1.0;
  for (std::size_t b = 0; b < counts.size(); ++b)
    EXPECT_DOUBLE_EQ(counts[b], replay[b]);
}

// ---- drift detection ----

TEST(ModelIntrospect, DriftTriggersOnDistributionShift) {
  IntrospectConfig cfg;
  cfg.drift_window_rounds = 4;
  cfg.drift_eval_period_rounds = 4;
  cfg.drift_min_samples = 4;
  cfg.occupancy_window = 16;
  MetricsRegistry registry;
  ModelIntrospect mi(&registry, cfg);
  mi.set_horizon(1, 5.0);
  mi.set_attribute_names({"cpu_user"});
  mi.add_baseline_occupancy(0, {16.0, 0.0});

  // Phase 1: well-calibrated (p ~ 0 and the outcome stays normal),
  // symbols match the training occupancy.
  for (std::size_t r = 0; r < 12; ++r) {
    mi.begin_round(5.0 * static_cast<double>(r), false);
    mi.record_horizon_probs({0.05});
    mi.observe_symbol(0, 0);
  }
  // Phase 2: confidently wrong (p ~ 1, outcome still normal) and the
  // runtime symbols move entirely to the other bin.
  for (std::size_t r = 12; r < 24; ++r) {
    mi.begin_round(5.0 * static_cast<double>(r), false);
    mi.record_horizon_probs({0.95});
    mi.observe_symbol(0, 1);
  }
  mi.finish(120.0);

  bool calibration_triggered = false;
  bool occupancy_triggered = false;
  for (const auto& record : mi.drift_records()) {
    if (record.kind == "calibration" && record.triggered)
      calibration_triggered = true;
    if (record.kind == "occupancy" && record.triggered) {
      occupancy_triggered = true;
      EXPECT_EQ(record.attribute, "cpu_user");
    }
  }
  EXPECT_TRUE(calibration_triggered);
  EXPECT_TRUE(occupancy_triggered);
  const auto snap = registry.snapshot();
  EXPECT_GT(snap.counters.at("model.drift.triggers_total"), 0.0);
  EXPECT_GT(snap.counters.at("model.drift.evaluations_total"), 0.0);
}

TEST(ModelIntrospect, StableRunDoesNotTrigger) {
  IntrospectConfig cfg;
  cfg.drift_window_rounds = 4;
  cfg.drift_eval_period_rounds = 4;
  cfg.drift_min_samples = 4;
  ModelIntrospect mi(nullptr, cfg);
  mi.set_horizon(1, 5.0);
  for (std::size_t r = 0; r < 24; ++r) {
    mi.begin_round(5.0 * static_cast<double>(r), false);
    mi.record_horizon_probs({0.05});
  }
  mi.finish(120.0);
  for (const auto& record : mi.drift_records())
    EXPECT_FALSE(record.triggered) << record.kind << " at t=" << record.t;
}

// ---- end-to-end determinism + schema ----

/// Runs the default scenario with introspection attached and returns
/// the full introspection JSONL section.
std::string introspection_trace() {
  MetricsRegistry registry;
  ModelIntrospect introspect(&registry);
  ScenarioConfig config;
  config.seed = 13;
  config.metrics = &registry;
  config.introspect = &introspect;
  run_scenario(config);
  std::ostringstream os;
  introspect.write_introspection_jsonl(os, "determinism-check");
  return os.str();
}

TEST(ModelIntrospect, TraceByteIdenticalAcrossRuns) {
  const std::string first = introspection_trace();
  const std::string second = introspection_trace();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ModelIntrospect, AttachingIntrospectionDoesNotChangeTheRun) {
  ScenarioConfig config;
  config.seed = 13;
  const auto bare = run_scenario(config);

  MetricsRegistry registry;
  ModelIntrospect introspect(&registry);
  config.metrics = &registry;
  config.introspect = &introspect;
  const auto observed = run_scenario(config);

  EXPECT_EQ(bare.violation_time, observed.violation_time);
  EXPECT_EQ(bare.violation_time_total, observed.violation_time_total);
  EXPECT_EQ(bare.faulty_vm, observed.faulty_vm);
}

TEST(ModelIntrospect, ExportedTraceValidatesAgainstSchemaV3) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 unavailable";

  MetricsRegistry registry;
  ModelIntrospect introspect(&registry);
  ScenarioConfig config;
  config.seed = 13;
  config.metrics = &registry;
  config.introspect = &introspect;
  const auto result = run_scenario(config);

  const std::string path =
      test_util::unique_temp_path("model_introspect_trace") + ".jsonl";
  {
    std::ofstream os(path);
    ASSERT_TRUE(os.good());
    obs::RunInfo info;
    info.run_id = "introspect-schema-check";
    info.sim_time_end = config.run_end;
    obs::write_run_header(os, info);
    result.events.to_jsonl(os, info.run_id);
    introspect.write_introspection_jsonl(os, info.run_id);
    obs::write_metrics_jsonl(os, registry, info.run_id, config.run_end);
  }
  const std::string cmd = "python3 " PREPARE_SOURCE_DIR
                          "/tools/check_obs_schema.py " +
                          path + " --require-calibration > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "schema validation failed";
  const std::string report_cmd = "python3 " PREPARE_SOURCE_DIR
                                 "/tools/prepare_report.py " +
                                 path + " > /dev/null";
  EXPECT_EQ(std::system(report_cmd.c_str()), 0) << "prepare_report failed";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prepare
