#include "core/anomaly_predictor.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace prepare {
namespace {

/// Synthetic component: feature 0 declines toward zero during anomalies
/// (free memory), feature 1 rises (CPU), feature 2 is noise.
struct SyntheticTrace {
  std::vector<std::vector<double>> rows;
  std::vector<bool> abnormal;
};

SyntheticTrace leak_trace(std::uint64_t seed) {
  SyntheticTrace out;
  Rng rng(seed);
  auto emit = [&](double free_mem, double cpu, bool abnormal) {
    out.rows.push_back({free_mem + rng.gaussian(0.0, 2.0),
                        cpu + rng.gaussian(0.0, 1.0),
                        rng.uniform(0.0, 10.0)});
    out.abnormal.push_back(abnormal);
  };
  // Healthy phase.
  for (int i = 0; i < 120; ++i) emit(300.0, 20.0, false);
  // Decline phase (still labeled normal until the SLO trips).
  for (int i = 0; i < 30; ++i)
    emit(300.0 - 8.0 * i, 20.0 + 0.8 * i, false);
  // Violation phase.
  for (int i = 0; i < 40; ++i) emit(20.0, 85.0, true);
  // Recovery.
  for (int i = 0; i < 40; ++i) emit(300.0, 20.0, false);
  return out;
}

std::vector<std::string> names() { return {"free_mem", "cpu", "noise"}; }

/// Feature columns of row-major samples: the layout train() takes.
std::vector<std::vector<double>> columns_of(
    const std::vector<std::vector<double>>& rows) {
  std::vector<std::vector<double>> columns(rows.front().size());
  for (const auto& row : rows)
    for (std::size_t i = 0; i < row.size(); ++i) columns[i].push_back(row[i]);
  return columns;
}

TEST(AnomalyPredictor, RequiresFeatures) {
  EXPECT_THROW(AnomalyPredictor({}), CheckFailure);
}

TEST(AnomalyPredictor, LifecycleChecks) {
  AnomalyPredictor p(names());
  EXPECT_FALSE(p.trained());
  EXPECT_THROW(p.observe(std::vector{1.0, 2.0, 3.0}), CheckFailure);
  EXPECT_THROW(p.predict(TickIndex{1}), CheckFailure);
  EXPECT_THROW(p.classify_current(), CheckFailure);
}

TEST(AnomalyPredictor, TrainsAndClassifiesCurrent) {
  AnomalyPredictor p(names());
  const auto trace = leak_trace(1);
  p.train(columns_of(trace.rows), trace.abnormal);
  EXPECT_TRUE(p.trained());
  EXPECT_TRUE(p.discriminative());
  p.observe(std::vector{20.0, 85.0, 5.0});
  EXPECT_TRUE(p.classify_current().abnormal);
  p.observe(std::vector{300.0, 20.0, 5.0});
  p.observe(std::vector{300.0, 20.0, 5.0});
  EXPECT_FALSE(p.classify_current().abnormal);
}

TEST(AnomalyPredictor, PredictsAnomalyDuringDecline) {
  AnomalyPredictor p(names());
  const auto trace = leak_trace(2);
  p.train(columns_of(trace.rows), trace.abnormal);
  // Feed a fresh decline; the predictor should alarm before the values
  // reach the violation-era levels.
  Rng rng(3);
  bool alarmed_early = false;
  for (int i = 0; i < 30; ++i) {
    const double free_mem = 300.0 - 8.0 * i;
    p.observe(std::vector{free_mem + rng.gaussian(0.0, 2.0),
               20.0 + 0.8 * i + rng.gaussian(0.0, 1.0),
               rng.uniform(0.0, 10.0)});
    if (!p.ready()) continue;
    const auto result = p.predict(TickIndex{10});
    if (result.classification.abnormal && free_mem > 80.0)
      alarmed_early = true;
  }
  EXPECT_TRUE(alarmed_early);
}

TEST(AnomalyPredictor, PredictedValuesFollowTrend) {
  AnomalyPredictor p(names());
  const auto trace = leak_trace(4);
  p.train(columns_of(trace.rows), trace.abnormal);
  // Mid-decline context: the predicted free_mem at the horizon should be
  // well below the current value.
  Rng rng(5);
  for (int i = 0; i < 15; ++i)
    p.observe(std::vector{300.0 - 8.0 * i, 20.0 + 0.8 * i,
                          rng.uniform(0.0, 10.0)});
  const auto result = p.predict(TickIndex{8});
  EXPECT_LT(result.predicted_values[0], 300.0 - 8.0 * 14);
  // Only the cold predict() fills them: predict_into() classifies the
  // same state and empties the values, so a Result reused from
  // predict() holds none from the older prediction.
  AnomalyPredictor::Result reused = result;
  ASSERT_FALSE(reused.predicted_values.empty());
  p.predict_into(TickIndex{8}, /*with_horizon=*/false, &reused);
  EXPECT_TRUE(reused.predicted_values.empty());
  EXPECT_EQ(reused.classification.score.value(),
            result.classification.score.value());
  EXPECT_EQ(reused.classification.impacts, result.classification.impacts);
}

// A predictor built without look-ahead (the reactive baseline's) trains
// the same discretizers and classifier, so after the same observe()
// calls it classifies the current sample to the same bits. It has no
// Markov bank: it never becomes ready, and predict() throws.
TEST(AnomalyPredictor, WithoutLookAheadClassifiesTheSameBits) {
  const auto trace = leak_trace(8);
  AnomalyPredictor ahead(names());
  AnomalyPredictor current(names(), PredictorConfig(), /*look_ahead=*/false);
  ahead.train(columns_of(trace.rows), trace.abnormal);
  current.train(columns_of(trace.rows), trace.abnormal);
  ASSERT_TRUE(current.trained());
  Rng rng(9);
  for (int i = 0; i <= 40; ++i) {
    if (i > 0) {
      const std::vector<double> row = {
          300.0 - 7.0 * i + rng.gaussian(0.0, 2.0),
          20.0 + 1.6 * i + rng.gaussian(0.0, 1.0), rng.uniform(0.0, 10.0)};
      ahead.observe(row);
      current.observe(row);
    }
    const Classification want = ahead.classify_current();
    const Classification got = current.classify_current();
    EXPECT_EQ(got.abnormal, want.abnormal) << "row " << i;
    EXPECT_EQ(got.score.value(), want.score.value()) << "row " << i;
    EXPECT_EQ(got.impacts, want.impacts) << "row " << i;
    EXPECT_TRUE(ahead.ready()) << "row " << i;
    EXPECT_FALSE(current.ready()) << "row " << i;
    EXPECT_THROW(current.predict(TickIndex{4}), CheckFailure) << "row " << i;
  }
}

TEST(AnomalyPredictor, AttributionPinpointsLeakFeatures) {
  AnomalyPredictor p(names());
  const auto trace = leak_trace(6);
  p.train(columns_of(trace.rows), trace.abnormal);
  p.observe(std::vector{20.0, 85.0, 5.0});
  const auto cls = p.classify_current();
  const auto order = Classifier::ranked_attributes(cls);
  EXPECT_NE(order[0], 2u);  // noise must not rank first
  EXPECT_GT(cls.impacts[0], 0.0);
}

TEST(AnomalyPredictor, NonDiscriminativeWhenClassesOverlap) {
  // Labels are independent of the features: the model cannot separate.
  std::vector<std::vector<double>> rows;
  std::vector<bool> abnormal;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    rows.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 1.0)});
    abnormal.push_back(i % 5 == 0);
  }
  AnomalyPredictor p(names());
  p.train(columns_of(rows), abnormal);
  EXPECT_FALSE(p.discriminative());
  EXPECT_LT(p.train_tpr(), 0.5);
}

TEST(AnomalyPredictor, AllNormalTrainingIsDiscriminativeByConvention) {
  std::vector<std::vector<double>> rows(50, {1.0, 2.0, 3.0});
  std::vector<bool> abnormal(50, false);
  AnomalyPredictor p(names());
  p.train(columns_of(rows), abnormal);
  EXPECT_TRUE(p.discriminative());
  EXPECT_DOUBLE_EQ(p.train_tpr(), 1.0);
}

TEST(AnomalyPredictor, NaiveBayesBackendWorks) {
  PredictorConfig config;
  config.classifier = ClassifierKind::kNaiveBayes;
  AnomalyPredictor p(names(), config);
  const auto trace = leak_trace(8);
  p.train(columns_of(trace.rows), trace.abnormal);
  p.observe(std::vector{20.0, 85.0, 5.0});
  EXPECT_TRUE(p.classify_current().abnormal);
}

TEST(AnomalyPredictor, SimpleMarkovBackendWorks) {
  PredictorConfig config;
  config.markov_order = 1;
  AnomalyPredictor p(names(), config);
  const auto trace = leak_trace(9);
  p.train(columns_of(trace.rows), trace.abnormal);
  p.observe(std::vector{300.0, 20.0, 5.0});
  EXPECT_NO_THROW(p.predict(TickIndex{6}));
}

TEST(AnomalyPredictor, MismatchedRowSizesThrow) {
  AnomalyPredictor p(names());
  // Two columns for three features, then three of the wrong length.
  EXPECT_THROW(p.train(columns_of({{1.0, 2.0}}), {false}), CheckFailure);
  EXPECT_THROW(p.train(columns_of({{1.0, 2.0, 3.0}}), {false, true}),
               CheckFailure);
  const auto trace = leak_trace(10);
  p.train(columns_of(trace.rows), trace.abnormal);
  EXPECT_THROW(p.observe(std::vector{1.0}), CheckFailure);
}

TEST(AnomalyPredictor, RetrainReplacesModel) {
  AnomalyPredictor p(names());
  const auto trace = leak_trace(11);
  p.train(columns_of(trace.rows), trace.abnormal);
  // Retrain with all-normal data: nothing should classify abnormal.
  std::vector<std::vector<double>> rows(60, {100.0, 10.0, 5.0});
  std::vector<bool> abnormal(60, false);
  p.train(columns_of(rows), abnormal);
  p.observe(std::vector{20.0, 85.0, 5.0});
  EXPECT_FALSE(p.classify_current().abnormal);
}

}  // namespace
}  // namespace prepare
