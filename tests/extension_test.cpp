// Tests for the extension features layered on the paper's core design:
// guard bins, mixed-fault scenarios, per-sample accuracy records, and
// the unsupervised pipeline end to end.
#include <gtest/gtest.h>

#include "core/accuracy.h"
#include "core/anomaly_predictor.h"
#include "core/experiment.h"
#include "models/discretizer.h"

namespace prepare {
namespace {

TEST(GuardBins, OutOfRangeValuesGetDedicatedBins) {
  Discretizer d(4, DiscretizerKind::kEqualWidth, 0.05, /*guard_bins=*/true);
  d.fit({10.0, 20.0});
  EXPECT_EQ(d.bins(), 6u);  // 4 interior + 2 guards
  // Training-range values never land in the guard bins.
  for (double x = 10.0; x <= 20.0; x += 0.5) {
    EXPECT_GT(d.discretize(x), 0u);
    EXPECT_LT(d.discretize(x), d.bins() - 1);
  }
  EXPECT_EQ(d.discretize(-100.0), 0u);
  EXPECT_EQ(d.discretize(100.0), d.bins() - 1);
}

TEST(GuardBins, MarginAbsorbsNearRangeNoise) {
  Discretizer d(4, DiscretizerKind::kEqualWidth, 0.05, true);
  d.fit({0.0, 100.0});
  // Values just outside the observed range stay out of the guard bins
  // (they are small-sample noise, not anomalies).
  EXPECT_GT(d.discretize(-2.0), 0u);
  EXPECT_LT(d.discretize(102.0), d.bins() - 1);
  // Far outside -> guard.
  EXPECT_EQ(d.discretize(-50.0), 0u);
  EXPECT_EQ(d.discretize(200.0), d.bins() - 1);
}

TEST(GuardBins, WorkWithQuantileBins) {
  Discretizer d(4, DiscretizerKind::kQuantile, 0.05, true);
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  d.fit(xs);
  EXPECT_EQ(d.discretize(-100.0), 0u);
  EXPECT_EQ(d.discretize(1000.0), d.bins() - 1);
  EXPECT_GT(d.discretize(50.0), 0u);
}

TEST(MixedFaults, SecondFaultKindHonored) {
  ScenarioConfig config;
  config.app = AppKind::kSystemS;
  config.fault = FaultKind::kMemoryLeak;
  config.second_fault = FaultKind::kCpuHog;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 4;
  const auto result = run_scenario(config);
  // Both injections must violate: the leak gradually, the hog abruptly.
  bool first = false, second = false;
  for (const auto& iv : result.slo.intervals()) {
    if (iv.start >= 300.0 && iv.start < 660.0) first = true;
    if (iv.start >= 895.0 && iv.start < 1260.0) second = true;
  }
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  // The hog manifests within seconds of injection; the leak takes
  // minutes. Compare onset delays.
  double onset1 = 1e18, onset2 = 1e18;
  for (const auto& iv : result.slo.intervals()) {
    if (iv.start >= 300.0 && onset1 > 1e17) onset1 = iv.start - 300.0;
    if (iv.start >= 895.0 && onset2 > 1e17) onset2 = iv.start - 900.0;
  }
  EXPECT_GT(onset1, 60.0);
  EXPECT_LT(onset2, 20.0);
}

TEST(MixedFaults, SupervisedModelMissesUnseenFaultKind) {
  ScenarioConfig config;
  config.app = AppKind::kSystemS;
  config.fault = FaultKind::kCpuHog;
  config.second_fault = FaultKind::kMemoryLeak;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 4;
  config.fault1_start = 600.0;  // clean lead-in
  const auto trace = run_scenario(config);

  AccuracyConfig acc;
  acc.train_end = 595.0;  // training saw NO anomaly at all
  acc.test_start = 600.0;
  const auto supervised = evaluate_accuracy(
      trace.store, trace.slo, trace.store.vm_names(), 20.0, acc);
  EXPECT_EQ(supervised.tp, 0u);  // cannot claim a class it never saw
  EXPECT_EQ(supervised.fp, 0u);

  acc.predictor.classifier = ClassifierKind::kOutlier;
  acc.predictor.guard_bins = true;
  acc.require_discriminative = false;
  const auto unsupervised = evaluate_accuracy(
      trace.store, trace.slo, trace.store.vm_names(), 20.0, acc);
  EXPECT_GT(unsupervised.a_t, 0.5);
}

TEST(AccuracyRecords, KeepPredictionsMatchesCounts) {
  ScenarioConfig config;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 5;
  const auto trace = run_scenario(config);
  AccuracyConfig acc;
  acc.keep_predictions = true;
  const auto result = evaluate_accuracy(
      trace.store, trace.slo, trace.store.vm_names(), 20.0, acc);
  ASSERT_EQ(result.samples.size(),
            result.tp + result.fn + result.fp + result.tn);
  std::size_t tp = 0, fp = 0;
  for (const auto& s : result.samples) {
    if (s.predicted && s.truth) ++tp;
    if (s.predicted && !s.truth) ++fp;
  }
  EXPECT_EQ(tp, result.tp);
  EXPECT_EQ(fp, result.fp);
  // Times are strictly increasing.
  for (std::size_t i = 1; i < result.samples.size(); ++i)
    EXPECT_GT(result.samples[i].time, result.samples[i - 1].time);
}

TEST(AccuracyRecords, OffByDefault) {
  ScenarioConfig config;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 5;
  const auto trace = run_scenario(config);
  const auto result = evaluate_accuracy(
      trace.store, trace.slo, trace.store.vm_names(), 20.0,
      AccuracyConfig{});
  EXPECT_TRUE(result.samples.empty());
}

TEST(OutlierPipeline, PredictorWithOutlierBackendAlarmsOnLeak) {
  // Full AnomalyPredictor with the unsupervised backend: train on a
  // clean synthetic stream, then feed a leak-like excursion.
  PredictorConfig config;
  config.classifier = ClassifierKind::kOutlier;
  config.guard_bins = true;
  AnomalyPredictor predictor({"free_mem", "cpu"}, config);
  std::vector<std::vector<double>> columns(2);
  std::vector<bool> labels;
  for (int i = 0; i < 200; ++i) {
    columns[0].push_back(300.0 + (i % 7));
    columns[1].push_back(20.0 + (i % 5));
    labels.push_back(false);
  }
  predictor.train(columns, labels);
  EXPECT_TRUE(predictor.trained());
  // Sustained deep excursion far outside anything seen (several samples
  // so the Markov context and transitions reflect the excursion).
  for (int i = 0; i < 6; ++i)
    predictor.observe(std::vector{40.0 - 2.0 * i, 85.0 + i});
  EXPECT_TRUE(predictor.classify_current().abnormal);
  EXPECT_TRUE(predictor.predict(TickIndex{4}).classification.abnormal);
}

TEST(OutlierPipeline, SupervisedBackendStaysSilentWithoutAbnormalLabels) {
  AnomalyPredictor predictor({"free_mem", "cpu"});  // TAN backend
  std::vector<std::vector<double>> columns(2);
  std::vector<bool> labels;
  for (int i = 0; i < 200; ++i) {
    columns[0].push_back(300.0 + (i % 7));
    columns[1].push_back(20.0 + (i % 5));
    labels.push_back(false);
  }
  predictor.train(columns, labels);
  predictor.observe(std::vector{40.0, 85.0});
  predictor.observe(std::vector{30.0, 88.0});
  EXPECT_FALSE(predictor.classify_current().abnormal);
  EXPECT_FALSE(predictor.predict(TickIndex{4}).classification.abnormal);
}

}  // namespace
}  // namespace prepare
