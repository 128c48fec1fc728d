// Naive Bayes is the TAN classifier without its tree: every attribute's
// only parent is the class.
#include "models/tan.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace prepare {
namespace {

/// Two attributes over 3 bins; attribute 0 is high iff abnormal,
/// attribute 1 is pure noise.
LabeledDataset planted_dataset(std::size_t n, std::uint64_t seed) {
  LabeledDataset data;
  data.alphabet = {3, 3};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool abnormal = i % 3 == 0;
    const std::size_t a0 = abnormal ? 2 : (rng.chance(0.5) ? 0 : 1);
    const std::size_t a1 = static_cast<std::size_t>(rng.uniform_int(0, 2));
    data.rows.push_back({a0, a1});
    data.abnormal.push_back(abnormal);
  }
  return data;
}

TEST(NaiveBayes, RejectsBadConstruction) {
  EXPECT_THROW(TanClassifier(0.0, /*tree=*/false), CheckFailure);
}

TEST(NaiveBayes, TrainOnEmptyThrows) {
  TanClassifier nb(1.0, /*tree=*/false);
  EXPECT_THROW(nb.train(LabeledDataset{}), CheckFailure);
}

TEST(NaiveBayes, ClassifiesPlantedSignal) {
  TanClassifier nb(1.0, /*tree=*/false);
  nb.train(planted_dataset(300, 1));
  EXPECT_TRUE(nb.classify({2, 1}).abnormal);
  EXPECT_FALSE(nb.classify({0, 1}).abnormal);
}

TEST(NaiveBayes, ScoreDecomposesIntoImpacts) {
  TanClassifier nb(1.0, /*tree=*/false);
  nb.train(planted_dataset(300, 2));
  const auto result = nb.classify({2, 0});
  double total = std::log(nb.prior(true) / nb.prior(false));
  for (double impact : result.impacts) total += impact;
  EXPECT_NEAR(result.score, total, 1e-12);
}

TEST(NaiveBayes, PlantedAttributeHasLargestImpact) {
  TanClassifier nb(1.0, /*tree=*/false);
  nb.train(planted_dataset(500, 3));
  const auto result = nb.classify({2, 2});
  const auto order = Classifier::ranked_attributes(result);
  EXPECT_EQ(order[0], 0u);
  EXPECT_GT(result.impacts[0], result.impacts[1]);
}

TEST(NaiveBayes, LikelihoodsAreDistributions) {
  TanClassifier nb(1.0, /*tree=*/false);
  nb.train(planted_dataset(200, 4));
  for (bool c : {false, true}) {
    for (std::size_t a = 0; a < 2; ++a) {
      double total = 0.0;
      for (std::size_t v = 0; v < 3; ++v)
        total += nb.likelihood(a, BinIndex{v}, BinIndex{0}, c);
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

TEST(NaiveBayes, PriorsSumToOne) {
  TanClassifier nb(1.0, /*tree=*/false);
  nb.train(planted_dataset(200, 5));
  EXPECT_NEAR(nb.prior(true) + nb.prior(false), 1.0, 1e-12);
}

TEST(NaiveBayes, ExpectedClassificationMatchesDeltaInputs) {
  TanClassifier nb(1.0, /*tree=*/false);
  nb.train(planted_dataset(300, 6));
  const std::vector<std::size_t> row = {2, 1};
  std::vector<Distribution> dists = {Distribution::delta(3, BinIndex{2}),
                                     Distribution::delta(3, BinIndex{1})};
  const auto hard = nb.classify(row);
  const auto soft = nb.classify_expected(dists);
  EXPECT_NEAR(hard.score, soft.score, 1e-9);
  EXPECT_EQ(hard.abnormal, soft.abnormal);
}

TEST(NaiveBayes, AllNormalTrainingNeverAlarms) {
  LabeledDataset data;
  data.alphabet = {3};
  for (int i = 0; i < 50; ++i) {
    data.rows.push_back({static_cast<std::size_t>(i % 3)});
    data.abnormal.push_back(false);
  }
  TanClassifier nb(1.0, /*tree=*/false);
  nb.train(data);
  for (std::size_t v = 0; v < 3; ++v)
    EXPECT_FALSE(nb.classify({v}).abnormal);
}

TEST(NaiveBayes, UntrainedQueriesThrow) {
  TanClassifier nb(1.0, /*tree=*/false);
  EXPECT_THROW(nb.classify({0}), CheckFailure);
  EXPECT_THROW(nb.prior(true), CheckFailure);
}

/// Random attributes, alphabets and labels; rows 0 and 1 fix one sample
/// per class so the class priors stay finite even at a subnormal alpha.
LabeledDataset random_dataset(Rng* rng) {
  LabeledDataset data;
  const auto attributes = static_cast<std::size_t>(rng->uniform_int(1, 13));
  for (std::size_t a = 0; a < attributes; ++a)
    data.alphabet.push_back(static_cast<std::size_t>(rng->uniform_int(2, 6)));
  const auto rows = static_cast<std::size_t>(rng->uniform_int(5, 200));
  const double p_abnormal = rng->uniform(0.05, 0.95);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> row;
    for (std::size_t k : data.alphabet)
      row.push_back(static_cast<std::size_t>(
          rng->uniform_int(0, static_cast<std::int64_t>(k) - 1)));
    data.rows.push_back(std::move(row));
    data.abnormal.push_back(r < 2 ? r == 0 : rng->chance(p_abnormal));
  }
  return data;
}

// Without the tree every parent is kNoParent, each likelihood is the
// Laplace closed form (n_cv + a) / (n_c + a k), and each impact L_i is
// log(P(v | C=1) / P(v | C=0)) — or, where that ratio overflows (a
// value seen only in the abnormal class at a subnormal alpha), the same
// quantity as a difference of logs.
TEST(NaiveBayes, LikelihoodsAndImpactsMatchTheClosedForm) {
  Rng rng(17);
  for (double alpha : {1e-320, 1e-300, 0.5, 1.0}) {
    SCOPED_TRACE(alpha);
    std::size_t log_difference_cells = 0;
    for (int trial = 0; trial < 20; ++trial) {
      const LabeledDataset data = random_dataset(&rng);
      TanClassifier nb(alpha, /*tree=*/false);
      nb.train(data);
      const std::size_t attributes = data.alphabet.size();
      double n_c[2] = {0.0, 0.0};
      std::vector<std::vector<double>> n_cv[2];
      for (int c = 0; c < 2; ++c)
        for (std::size_t k : data.alphabet) n_cv[c].emplace_back(k, 0.0);
      for (std::size_t r = 0; r < data.rows.size(); ++r) {
        const int c = data.abnormal[r] ? 1 : 0;
        n_c[c] += 1.0;
        for (std::size_t a = 0; a < attributes; ++a)
          n_cv[c][a][data.rows[r][a]] += 1.0;
      }
      for (std::size_t a = 0; a < attributes; ++a) {
        EXPECT_EQ(nb.parents()[a], TanClassifier::kNoParent);
        const std::size_t k = data.alphabet[a];
        const double ak = alpha * static_cast<double>(k);
        for (std::size_t v = 0; v < k; ++v) {
          double closed[2];
          for (int c = 0; c < 2; ++c) {
            closed[c] = (n_cv[c][a][v] + alpha) / (n_c[c] + ak);
            EXPECT_EQ(nb.likelihood(a, BinIndex{v}, BinIndex{0}, c == 1)
                          .value(),
                      closed[c]);
          }
          double impact = std::log(closed[1] / closed[0]);
          if (!std::isfinite(impact)) {
            ++log_difference_cells;
            impact =
                (std::log(n_cv[1][a][v] + alpha) - std::log(n_c[1] + ak)) -
                (std::log(n_cv[0][a][v] + alpha) - std::log(n_c[0] + ak));
          }
          std::vector<std::size_t> row(attributes, 0);
          row[a] = v;
          EXPECT_EQ(nb.classify(row).impacts[a], impact);
        }
      }
    }
    // On data this small only the subnormal alpha overflows the ratio.
    if (alpha < 1e-310) {
      EXPECT_GT(log_difference_cells, 0u);
    }
  }
}

}  // namespace
}  // namespace prepare
