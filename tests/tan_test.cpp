#include "models/tan.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace prepare {
namespace {

/// Attribute 0: anomaly signal. Attribute 1: copy of attribute 0 (fully
/// correlated). Attribute 2: independent noise.
LabeledDataset correlated_dataset(std::size_t n, std::uint64_t seed) {
  LabeledDataset data;
  data.alphabet = {3, 3, 3};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool abnormal = i % 4 == 0;
    const std::size_t a0 =
        abnormal ? 2 : static_cast<std::size_t>(rng.uniform_int(0, 1));
    const std::size_t a1 = a0;
    const std::size_t a2 = static_cast<std::size_t>(rng.uniform_int(0, 2));
    data.rows.push_back({a0, a1, a2});
    data.abnormal.push_back(abnormal);
  }
  return data;
}

/// Verifies the parent vector forms a tree rooted at a single attribute.
void expect_valid_tree(const std::vector<std::size_t>& parents) {
  std::size_t roots = 0;
  for (std::size_t i = 0; i < parents.size(); ++i) {
    if (parents[i] == TanClassifier::kNoParent) {
      ++roots;
      continue;
    }
    ASSERT_LT(parents[i], parents.size());
    // Walk to the root; must terminate (no cycles).
    std::set<std::size_t> seen = {i};
    std::size_t cur = parents[i];
    while (cur != TanClassifier::kNoParent) {
      ASSERT_TRUE(seen.insert(cur).second) << "cycle through " << cur;
      cur = parents[cur];
    }
  }
  EXPECT_EQ(roots, 1u);
}

TEST(Tan, RejectsBadConstruction) {
  EXPECT_THROW(TanClassifier(0.0), CheckFailure);
}

TEST(Tan, StructureIsATree) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 1));
  expect_valid_tree(tan.parents());
}

TEST(Tan, CorrelatedAttributesBecomeNeighbors) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 2));
  // Attributes 0 and 1 are copies: one must be the other's parent.
  const auto& p = tan.parents();
  EXPECT_TRUE(p[1] == 0 || p[0] == 1);
}

TEST(Tan, CmiSymmetricNonNegative) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 3));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(tan.conditional_mutual_information(i, j), 0.0);
      EXPECT_DOUBLE_EQ(tan.conditional_mutual_information(i, j),
                       tan.conditional_mutual_information(j, i));
    }
  }
  // The correlated pair carries more information than the noise pair.
  EXPECT_GT(tan.conditional_mutual_information(0, 1),
            tan.conditional_mutual_information(0, 2));
}

TEST(Tan, ClassifiesPlantedSignal) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 4));
  EXPECT_TRUE(tan.classify({2, 2, 1}).abnormal);
  EXPECT_FALSE(tan.classify({0, 0, 1}).abnormal);
}

TEST(Tan, ScoreIsEquationOne) {
  // Classification::score must equal the prior log-odds plus the sum of
  // per-attribute impacts L_i (Eq. 1/2 of the paper).
  TanClassifier tan;
  tan.train(correlated_dataset(400, 5));
  const auto result = tan.classify({2, 2, 0});
  double total = std::log(tan.prior(true) / tan.prior(false));
  for (double impact : result.impacts) total += impact;
  EXPECT_NEAR(result.score, total, 1e-12);
  EXPECT_EQ(result.abnormal, result.score > 0.0);
}

TEST(Tan, ImpactsMatchLikelihoodRatios) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 6));
  const std::vector<std::size_t> row = {2, 2, 1};
  const auto result = tan.classify(row);
  for (std::size_t i = 0; i < row.size(); ++i) {
    const std::size_t p = tan.parents()[i];
    const std::size_t pv = p == TanClassifier::kNoParent ? 0 : row[p];
    const double expected = std::log(tan.likelihood(i, BinIndex{row[i]}, BinIndex{pv}, true) /
                                     tan.likelihood(i, BinIndex{row[i]}, BinIndex{pv}, false));
    EXPECT_NEAR(result.impacts[i], expected, 1e-12);
  }
}

TEST(Tan, AttributionRanksSignalFirst) {
  TanClassifier tan;
  tan.train(correlated_dataset(600, 7));
  const auto result = tan.classify({2, 2, 2});
  const auto order = Classifier::ranked_attributes(result);
  // The noise attribute must rank last.
  EXPECT_EQ(order.back(), 2u);
}

TEST(Tan, LikelihoodRowsAreDistributions) {
  TanClassifier tan;
  tan.train(correlated_dataset(300, 8));
  for (bool c : {false, true}) {
    for (std::size_t a = 0; a < 3; ++a) {
      for (std::size_t pv = 0; pv < 3; ++pv) {
        double total = 0.0;
        for (std::size_t v = 0; v < 3; ++v)
          total += tan.likelihood(a, BinIndex{v}, BinIndex{pv}, c);
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
    }
  }
}

TEST(Tan, ExpectedClassificationMatchesDeltaInputs) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 9));
  const std::vector<std::size_t> row = {2, 2, 1};
  std::vector<Distribution> dists = {Distribution::delta(3, BinIndex{2}),
                                     Distribution::delta(3, BinIndex{2}),
                                     Distribution::delta(3, BinIndex{1})};
  const auto hard = tan.classify(row);
  const auto soft = tan.classify_expected(dists);
  EXPECT_NEAR(hard.score, soft.score, 1e-9);
}

TEST(Tan, SingleAttributeDegeneratesToNaiveBayes) {
  LabeledDataset data;
  data.alphabet = {2};
  for (int i = 0; i < 100; ++i) {
    const bool abnormal = i % 2 == 0;
    data.rows.push_back({abnormal ? 1u : 0u});
    data.abnormal.push_back(abnormal);
  }
  TanClassifier tan;
  tan.train(data);
  EXPECT_EQ(tan.parents()[0], TanClassifier::kNoParent);
  EXPECT_TRUE(tan.classify({1}).abnormal);
  EXPECT_FALSE(tan.classify({0}).abnormal);
}

TEST(Tan, AllNormalTrainingNeverAlarms) {
  LabeledDataset data;
  data.alphabet = {3, 3};
  Rng rng(10);
  for (int i = 0; i < 80; ++i) {
    data.rows.push_back(
        {static_cast<std::size_t>(rng.uniform_int(0, 2)),
         static_cast<std::size_t>(rng.uniform_int(0, 2))});
    data.abnormal.push_back(false);
  }
  TanClassifier tan;
  tan.train(data);
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = 0; b < 3; ++b)
      EXPECT_FALSE(tan.classify({a, b}).abnormal);
}

TEST(Tan, MismatchedRowSizeThrows) {
  TanClassifier tan;
  tan.train(correlated_dataset(100, 11));
  EXPECT_THROW(tan.classify({0}), CheckFailure);
}

/// The per-pair structure learning that one-pass counting replaced,
/// kept verbatim as the reference: for every pair and class, rescan the
/// rows and grow each smoothed cell by `+= 1.0`, then Prim.
struct ReferenceStructure {
  std::vector<std::vector<double>> cmi;
  std::vector<std::size_t> parents;
};

ReferenceStructure reference_structure(const LabeledDataset& data,
                                       double alpha) {
  const std::size_t n = data.attributes();
  const auto& alphabet = data.alphabet;
  ReferenceStructure out;
  out.cmi.assign(n, std::vector<double>(n, 0.0));
  std::vector<double> joint, mi, mj;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double info = 0.0;
      for (int c = 0; c < 2; ++c) {
        const std::size_t ki = alphabet[i], kj = alphabet[j];
        joint.assign(ki * kj, alpha);
        mi.assign(ki, alpha * static_cast<double>(kj));
        mj.assign(kj, alpha * static_cast<double>(ki));
        double total = alpha * static_cast<double>(ki * kj);
        for (std::size_t r = 0; r < data.rows.size(); ++r) {
          if ((data.abnormal[r] ? 1 : 0) != c) continue;
          const std::size_t vi = data.rows[r][i];
          const std::size_t vj = data.rows[r][j];
          joint[vi * kj + vj] += 1.0;
          mi[vi] += 1.0;
          mj[vj] += 1.0;
          total += 1.0;
        }
        const double n_c =
            static_cast<double>(std::count(data.abnormal.begin(),
                                           data.abnormal.end(), c == 1));
        const double p_c =
            (n_c + alpha) / (static_cast<double>(data.size()) + 2.0 * alpha);
        double info_c = 0.0;
        for (std::size_t vi = 0; vi < ki; ++vi) {
          for (std::size_t vj = 0; vj < kj; ++vj) {
            const double p_joint = joint[vi * kj + vj] / total;
            const double p_i = mi[vi] / total;
            const double p_j = mj[vj] / total;
            if (p_joint > 0.0)
              info_c += p_joint * std::log(p_joint / (p_i * p_j));
          }
        }
        info += p_c * std::max(0.0, info_c);
      }
      out.cmi[i][j] = out.cmi[j][i] = info;
    }
  }
  out.parents.assign(n, TanClassifier::kNoParent);
  if (n == 1) return out;
  std::vector<bool> in_tree(n, false);
  std::vector<double> best_weight(n, -1.0);
  std::vector<std::size_t> best_from(n, TanClassifier::kNoParent);
  in_tree[0] = true;
  for (std::size_t j = 1; j < n; ++j) {
    best_weight[j] = out.cmi[0][j];
    best_from[j] = 0;
  }
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t pick = TanClassifier::kNoParent;
    double pick_weight = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      if (best_weight[j] > pick_weight) {
        pick_weight = best_weight[j];
        pick = j;
      }
    }
    in_tree[pick] = true;
    out.parents[pick] = best_from[pick];
    for (std::size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      if (out.cmi[pick][j] > best_weight[j]) {
        best_weight[j] = out.cmi[pick][j];
        best_from[j] = pick;
      }
    }
  }
  return out;
}

enum class Labels { kBalanced, kOneAbnormal, kAllNormal, kAllAbnormal };

/// `n` attributes with alphabets drawn from 2..8, each attribute a noisy
/// copy of its predecessor so the pairs carry information.
LabeledDataset mixed_dataset(std::size_t n, Labels labels, Rng* rng) {
  LabeledDataset data;
  for (std::size_t i = 0; i < n; ++i)
    data.alphabet.push_back(static_cast<std::size_t>(rng->uniform_int(2, 8)));
  const std::size_t rows = 150;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> row(n);
    for (std::size_t i = 0; i < n; ++i) {
      const bool copy = i > 0 && rng->uniform_int(0, 3) != 0;
      const auto fresh = static_cast<std::size_t>(
          rng->uniform_int(0, static_cast<std::int64_t>(data.alphabet[i]) - 1));
      row[i] = copy ? row[i - 1] % data.alphabet[i] : fresh;
    }
    data.rows.push_back(std::move(row));
    bool abnormal = false;
    switch (labels) {
      case Labels::kBalanced: abnormal = r % 2 == 1; break;
      case Labels::kOneAbnormal: abnormal = r == rows / 3; break;
      case Labels::kAllNormal: abnormal = false; break;
      case Labels::kAllAbnormal: abnormal = true; break;
    }
    data.abnormal.push_back(abnormal);
  }
  return data;
}

TEST(Tan, OnePassStructureIsBitwiseThePerPairLoop) {
  // Counting every pair in one pass and rebuilding the smoothed cells
  // from integer counts must leave the per-pair loop's bits, for any
  // alpha. Subnormal and non-dyadic alphas round on `+= 1.0`; for 0.01
  // and 1/3, m additions differ from alpha + m within a few rows (for
  // 0.1, 0.3 and 7.1 they happen not to), so only the increment table
  // passes for them.
  Rng rng(404);
  for (std::size_t n : {1, 2, 3, 5, 8, 13, 16}) {
    for (Labels labels : {Labels::kBalanced, Labels::kOneAbnormal,
                          Labels::kAllNormal, Labels::kAllAbnormal}) {
      const LabeledDataset data = mixed_dataset(n, labels, &rng);
      for (double alpha :
           {1e-320, 1e-300, 0.01, 0.1, 0.3, 1.0 / 3.0, 0.5, 1.0, 7.1}) {
        // With one class empty, an alpha this small rounds the other
        // class's smoothed prior to exactly 1, which prior() rejects.
        const double rows = static_cast<double>(data.size());
        const bool one_class =
            labels == Labels::kAllNormal || labels == Labels::kAllAbnormal;
        if (one_class && !((rows + alpha) / (rows + 2.0 * alpha) < 1.0))
          continue;
        SCOPED_TRACE(::testing::Message()
                     << n << " attributes, labels "
                     << static_cast<int>(labels) << ", alpha " << alpha);
        TanClassifier tan(alpha);
        tan.train(data);
        const ReferenceStructure ref = reference_structure(data, alpha);
        EXPECT_EQ(tan.parents(), ref.parents);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(tan.conditional_mutual_information(i, j), ref.cmi[i][j])
                << "pair (" << i << ", " << j << ")";
        // Each CPT cell is the row count of its (value, parent value,
        // class), as the per-row counting loop left it.
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t p = tan.parents()[i];
          const std::size_t k = data.alphabet[i];
          const std::size_t parent_values =
              p == TanClassifier::kNoParent ? 1 : data.alphabet[p];
          for (int c = 0; c < 2; ++c) {
            std::vector<double> table(parent_values * k, 0.0);
            for (std::size_t r = 0; r < data.rows.size(); ++r) {
              if ((data.abnormal[r] ? 1 : 0) != c) continue;
              const std::size_t pv =
                  p == TanClassifier::kNoParent ? 0 : data.rows[r][p];
              table[pv * k + data.rows[r][i]] += 1.0;
            }
            for (std::size_t pv = 0; pv < parent_values; ++pv) {
              double row_total = 0.0;
              for (std::size_t v = 0; v < k; ++v)
                row_total += table[pv * k + v];
              for (std::size_t v = 0; v < k; ++v)
                EXPECT_EQ(tan.likelihood(i, BinIndex{v}, BinIndex{pv}, c == 1)
                              .value(),
                          (table[pv * k + v] + alpha) /
                              (row_total + alpha * static_cast<double>(k)))
                    << "attribute " << i << " cell (" << pv << ", " << v
                    << ") class " << c;
            }
          }
        }
      }
    }
  }
}

// Property sweep: on datasets with a planted signal of varying strength,
// the structure stays a tree and classification accuracy on the training
// set is above chance.
class TanDatasetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TanDatasetSweep, TreeAndTrainAccuracy) {
  const auto data = correlated_dataset(300, GetParam());
  TanClassifier tan;
  tan.train(data);
  expect_valid_tree(tan.parents());
  std::size_t correct = 0;
  for (std::size_t r = 0; r < data.rows.size(); ++r)
    if (tan.classify(data.rows[r]).abnormal == data.abnormal[r]) ++correct;
  EXPECT_GT(static_cast<double>(correct) /
                static_cast<double>(data.rows.size()),
            0.8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TanDatasetSweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace prepare
