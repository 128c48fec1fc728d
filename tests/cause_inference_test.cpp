#include "core/cause_inference.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace prepare {
namespace {

Classification make_classification(double score,
                                   std::vector<double> impacts) {
  Classification c;
  c.score = LogOdds{score};
  c.abnormal = score > 0.0;
  c.impacts = std::move(impacts);
  return c;
}

AttributeVector sample_with_net_in(double net_in) {
  AttributeVector v{};
  set(v, Attribute::kNetIn, net_in);
  return v;
}

TEST(CauseInference, RejectsEmptyVmList) {
  EXPECT_THROW(CauseInference({}), CheckFailure);
}

TEST(CauseInference, DiagnosisSortsByScore) {
  CauseInference ci(3);
  const Classification a = make_classification(1.0, {0.5, 0.5, 0.0});
  const Classification c = make_classification(3.0, {2.0, 1.0, 0.0});
  const auto d = ci.diagnose({&a, nullptr, &c});
  ASSERT_EQ(d.faulty.size(), 2u);
  EXPECT_EQ(d.faulty[0].vm, 2u);
  EXPECT_EQ(d.faulty[1].vm, 0u);
}

TEST(CauseInference, DiagnosisTiesKeepPositionOrder) {
  CauseInference ci(3);
  const Classification tie = make_classification(2.0, {1.0, 0.0});
  const auto d = ci.diagnose({&tie, &tie, &tie});
  ASSERT_EQ(d.faulty.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(d.faulty[i].vm, i);
}

TEST(CauseInference, RankedMetricsDescendAndStopAtNonPositive) {
  CauseInference ci(1);
  // Impacts: attr2 strongest, attr0 next, rest <= 0.
  const Classification a =
      make_classification(2.0, {0.8, -0.1, 1.5, 0.0, -0.5});
  const auto d = ci.diagnose({&a});
  ASSERT_EQ(d.faulty.size(), 1u);
  ASSERT_EQ(d.faulty[0].ranked.size(), 2u);
  EXPECT_EQ(d.faulty[0].ranked[0], static_cast<Attribute>(2));
  EXPECT_EQ(d.faulty[0].ranked[1], static_cast<Attribute>(0));
}

TEST(CauseInference, TopAttributesLimitRespected) {
  CauseInference::Config config;
  config.top_attributes = 2;
  CauseInference ci(1, config);
  const Classification a =
      make_classification(2.0, {1.0, 2.0, 3.0, 4.0, 5.0});
  const auto d = ci.diagnose({&a});
  EXPECT_EQ(d.faulty[0].ranked.size(), 2u);
}

TEST(CauseInference, WorkloadChangeNeedsAllComponents) {
  CauseInference::Config config;
  config.cusum.warmup_samples = 20;
  config.recent_window_s = 100.0;
  CauseInference ci(2, config);
  Rng rng(1);
  // Warm both baselines on quiet traffic.
  double t = 0.0;
  for (int i = 0; i < 40; ++i, t += 5.0) {
    ci.observe(0, t, sample_with_net_in(100.0 + rng.gaussian(0.0, 1.0)));
    ci.observe(1, t, sample_with_net_in(100.0 + rng.gaussian(0.0, 1.0)));
  }
  EXPECT_FALSE(ci.workload_change_suspected(t));
  // Only component a sees a traffic surge: internal fault, not workload.
  for (int i = 0; i < 40; ++i, t += 5.0) {
    ci.observe(0, t, sample_with_net_in(300.0));
    ci.observe(1, t, sample_with_net_in(100.0 + rng.gaussian(0.0, 1.0)));
  }
  EXPECT_FALSE(ci.workload_change_suspected(t));
  // Now both surge: workload change.
  for (int i = 0; i < 40; ++i, t += 5.0) {
    ci.observe(0, t, sample_with_net_in(300.0));
    ci.observe(1, t, sample_with_net_in(300.0));
  }
  EXPECT_TRUE(ci.workload_change_suspected(t));
}

TEST(CauseInference, ChangePointsExpire) {
  CauseInference::Config config;
  config.cusum.warmup_samples = 20;
  config.recent_window_s = 30.0;
  CauseInference ci(1, config);
  double t = 0.0;
  for (int i = 0; i < 30; ++i, t += 5.0)
    ci.observe(0, t, sample_with_net_in(100.0 + (i % 2) * 0.5));
  for (int i = 0; i < 10; ++i, t += 5.0)
    ci.observe(0, t, sample_with_net_in(500.0));
  EXPECT_TRUE(ci.workload_change_suspected(t));
  EXPECT_FALSE(ci.workload_change_suspected(t + 200.0));
}

TEST(CauseInference, UnknownVmObservationThrows) {
  CauseInference ci(1);
  EXPECT_THROW(ci.observe(1, 0.0, AttributeVector{}), CheckFailure);
}

TEST(CauseInference, EmptyAlertingYieldsEmptyDiagnosis) {
  CauseInference ci(1);
  EXPECT_TRUE(ci.diagnose({nullptr}).faulty.empty());
}

}  // namespace
}  // namespace prepare
