// Golden regression pin for the whole prediction fast path.
//
// This PR-era speed pass replaced the runtime log/divide arithmetic of
// the TAN classifier, the Markov look-ahead, and the discretizer with
// precomputed tables. The contract is that the fast path is
// *bit-identical* to the original first-principles computation, so this
// test pins it from two directions:
//
//  1. exact (EXPECT_DOUBLE_EQ) agreement between the table-driven
//     classify()/predict() outputs and the same quantities recomputed
//     in-test from the public slow-path primitives (prior(),
//     likelihood(), transition()) — this proves fast == slow on any
//     platform, and
//  2. hard-coded golden values for a fixed end-to-end scenario
//     (classification flag, Eq. (1) score, every L_i impact, every
//     predicted metric value) — this pins today's outputs against
//     silent drift from future refactors. The constants were generated
//     from the pre-fast-path implementation and verified byte-identical
//     against the table-driven one.
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/anomaly_predictor.h"
#include "models/markov_bank.h"
#include "models/tan.h"

namespace prepare {
namespace {

// Tight enough to catch any algorithmic change; loose enough to absorb
// cross-platform libm one-ulp differences accumulated over ~20 logs.
constexpr double kGoldenTol = 1e-9;

/// The fixed golden scenario: 240 labeled training rows over 6
/// attributes with a ramp into an anomalous plateau, then a 12-sample
/// runtime ramp toward the anomalous regime. Everything is seeded, so
/// the outputs below are stable.
AnomalyPredictor golden_predictor(Rng* rng) {
  std::vector<std::vector<double>> columns(6);
  std::vector<bool> abnormal;
  for (std::size_t i = 0; i < 240; ++i) {
    const bool bad = i >= 160 && i < 200;
    for (std::size_t a = 0; a < 6; ++a) {
      double base = 40.0 + 8.0 * static_cast<double>(a);
      if (bad) base *= 1.7;
      if (i >= 140 && i < 200) base += 0.5 * static_cast<double>(i - 140);
      columns[a].push_back(base + rng->gaussian(0.0, 1.5));
    }
    abnormal.push_back(bad);
  }
  PredictorConfig config;
  config.bins = 5;
  AnomalyPredictor predictor(
      {"cpu", "mem", "net_in", "net_out", "disk", "load"}, config);
  predictor.train(columns, abnormal);
  for (std::size_t t = 0; t < 12; ++t) {
    std::vector<double> row;
    for (std::size_t a = 0; a < 6; ++a) {
      double base = 40.0 + 8.0 * static_cast<double>(a);
      base += 2.5 * static_cast<double>(t);
      row.push_back(base + rng->gaussian(0.0, 1.5));
    }
    predictor.observe(row);
  }
  return predictor;
}

TEST(Golden, EndToEndPrediction) {
  Rng rng(17);
  const AnomalyPredictor predictor = golden_predictor(&rng);
  ASSERT_TRUE(predictor.ready());

  // Generated from the pre-fast-path implementation (full %.17g
  // precision); the table-driven path reproduces them byte-identically.
  const double kScore = 6.3111161126999065;
  const double kImpacts[6] = {3.7584603879524421,  0.90730934320955858,
                              0.53958456308424119, 1.050410186850232,
                              0.40378302192517956, 1.2510808823123831};
  const double kValues6[6] = {48.047327165957341, 56.466036419465659,
                              64.141454337936139, 72.862619643258469,
                              80.225208706188226, 88.778723476219653};

  const auto result = predictor.predict(TickIndex{6});
  EXPECT_TRUE(result.classification.abnormal);
  EXPECT_NEAR(result.classification.score, kScore, kGoldenTol);
  ASSERT_EQ(result.classification.impacts.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(result.classification.impacts[i], kImpacts[i], kGoldenTol)
        << "impact " << i;
    EXPECT_TRUE(std::isfinite(result.classification.impacts[i]));
  }
  ASSERT_EQ(result.predicted_values.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(result.predicted_values[i], kValues6[i], kGoldenTol)
        << "value " << i;

  // The mode row is stable across these horizons, so score and impacts
  // must repeat exactly while the predicted values soften toward the
  // stationary distribution.
  const auto one = predictor.predict(TickIndex{1});
  EXPECT_NEAR(one.classification.score, kScore, kGoldenTol);
  EXPECT_NEAR(one.predicted_values[0], 49.05049544367742, kGoldenTol);
  const auto twelve = predictor.predict(TickIndex{12});
  EXPECT_NEAR(twelve.classification.score, kScore, kGoldenTol);
  EXPECT_NEAR(twelve.predicted_values[0], 47.07360317930241, kGoldenTol);

  const auto current = predictor.classify_current();
  EXPECT_TRUE(current.abnormal);
  EXPECT_NEAR(current.score, kScore, kGoldenTol);
}

/// Symbol rows with class-correlated structure for the classifier-level
/// exactness checks.
LabeledDataset symbol_dataset(Rng* rng) {
  LabeledDataset data;
  data.alphabet = {4, 4, 3, 5};
  for (std::size_t i = 0; i < 500; ++i) {
    const bool bad = i % 5 == 0;
    std::vector<std::size_t> row(4);
    row[0] = bad ? 3 : static_cast<std::size_t>(rng->uniform_int(0, 2));
    row[1] = (row[0] + static_cast<std::size_t>(rng->uniform_int(0, 1))) % 4;
    row[2] = static_cast<std::size_t>(rng->uniform_int(0, 2));
    row[3] = static_cast<std::size_t>(bad ? rng->uniform_int(3, 4)
                                      : rng->uniform_int(0, 3));
    data.rows.push_back(std::move(row));
    data.abnormal.push_back(bad);
  }
  return data;
}

TEST(Golden, TanFastPathEqualsFirstPrinciples) {
  Rng rng(29);
  TanClassifier tan(0.5);
  tan.train(symbol_dataset(&rng));
  for (const std::vector<std::size_t>& row :
       {std::vector<std::size_t>{0, 1, 2, 3}, {3, 3, 0, 4}, {1, 2, 1, 0}}) {
    const auto result = tan.classify(row);
    double expected =
        std::log(tan.prior(true) / tan.prior(false));
    for (std::size_t i = 0; i < row.size(); ++i) {
      const std::size_t p = tan.parents()[i];
      const std::size_t pv = p == TanClassifier::kNoParent ? 0 : row[p];
      const double impact =
          std::log(tan.likelihood(i, BinIndex{row[i]}, BinIndex{pv}, true) /
                   tan.likelihood(i, BinIndex{row[i]}, BinIndex{pv}, false));
      // Bit-identical, not merely close: the table cells are built from
      // the exact same expression the slow path evaluated per call.
      EXPECT_DOUBLE_EQ(result.impacts[i], impact) << "attribute " << i;
      expected += impact;
    }
    EXPECT_DOUBLE_EQ(result.score, expected);
    EXPECT_TRUE(std::isfinite(result.score));
  }
}

TEST(Golden, MarkovCachedRowsEqualFirstPrinciples) {
  Rng rng(31);
  std::vector<std::size_t> sequence;
  for (std::size_t i = 0; i < 400; ++i)
    sequence.push_back(static_cast<std::size_t>(rng.uniform_int(0, 4)));

  // Order 1: k-step propagation recomputed from public transition().
  MarkovBank chain(1, {5}, 0.05);
  chain.train({sequence});
  for (std::size_t steps : {1u, 4u, 9u}) {
    const Distribution fast = chain.predict(TickIndex{steps})[0];
    std::vector<double> v(5, 0.0);
    v[sequence.back()] = 1.0;
    for (std::size_t s = 0; s < steps; ++s) {
      std::vector<double> next(5, 0.0);
      for (std::size_t i = 0; i < 5; ++i) {
        if (v[i] <= 0.0) continue;
        for (std::size_t j = 0; j < 5; ++j)
          next[j] += v[i] * chain.transition(0, {i}, BinIndex{j});
      }
      v.swap(next);
    }
    double total = 0.0;
    for (double x : v) total += x;
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_DOUBLE_EQ(fast[j], v[j] / total)
          << "steps " << steps << " state " << j;
  }

  // Order 2: pair-state propagation recomputed from transition().
  MarkovBank two(2, {4}, 0.05);
  std::vector<std::size_t> seq2;
  for (std::size_t i = 0; i < 300; ++i)
    seq2.push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  two.train({seq2});
  const std::size_t prev = seq2[seq2.size() - 2], cur = seq2.back();
  for (std::size_t steps : {1u, 5u}) {
    const Distribution fast = two.predict(TickIndex{steps})[0];
    std::vector<double> v(16, 0.0);
    v[prev * 4 + cur] = 1.0;
    for (std::size_t s = 0; s < steps; ++s) {
      std::vector<double> next(16, 0.0);
      for (std::size_t a = 0; a < 4; ++a)
        for (std::size_t b = 0; b < 4; ++b) {
          const double mass = v[a * 4 + b];
          if (mass <= 0.0) continue;
          for (std::size_t c = 0; c < 4; ++c)
            next[b * 4 + c] +=
                mass * two.transition(0, {a, b}, BinIndex{c});
        }
      v.swap(next);
    }
    std::vector<double> marginal(4, 0.0);
    double total = 0.0;
    for (std::size_t a = 0; a < 4; ++a)
      for (std::size_t b = 0; b < 4; ++b) {
        marginal[b] += v[a * 4 + b];
        total += v[a * 4 + b];
      }
    for (std::size_t b = 0; b < 4; ++b)
      EXPECT_DOUBLE_EQ(fast[b], marginal[b] / total)
          << "steps " << steps << " state " << b;
  }
}

TEST(Golden, NDependentCachedRowsEqualTransition) {
  Rng rng(37);
  MarkovBank m(3, {3}, 0.5);
  std::vector<std::size_t> sequence;
  for (std::size_t i = 0; i < 300; ++i)
    sequence.push_back(static_cast<std::size_t>(rng.uniform_int(0, 2)));
  m.train({sequence});
  // Every cached transition row must reproduce the smoothed-count
  // formula exactly, and rows must stay normalized.
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = 0; b < 3; ++b)
      for (std::size_t c = 0; c < 3; ++c) {
        double total = 0.0;
        for (std::size_t next = 0; next < 3; ++next)
          total += m.transition(0, {a, b, c}, BinIndex{next});
        EXPECT_NEAR(total, 1.0, 1e-12);
      }
  const Distribution p = m.predict(TickIndex{3})[0];
  EXPECT_NEAR(p.sum(), 1.0, 1e-9);
}

}  // namespace
}  // namespace prepare
