// Bit-for-bit pin of the trained model tables.
//
// golden_prediction_test checks predictor outputs to 1e-9, and the
// controller's decision-stream digests see training only through the
// decisions it leads to. This test pins what training itself leaves
// behind: it trains the discretizers, the Markov bank, the TAN (and its
// naive Bayes and outlier siblings) and a whole AnomalyPredictor on two
// fixed datasets and folds every learned number into one FNV-1a digest
// per case. The constants were recorded before the one-pass training
// path replaced the per-pair and sort-based ones; any change to the
// bits of a trained table changes them.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/anomaly_predictor.h"
#include "models/discretizer.h"
#include "models/markov_bank.h"
#include "models/outlier.h"
#include "models/tan.h"

namespace prepare {
namespace {

struct Rows {
  std::vector<std::vector<double>> rows;
  std::vector<bool> abnormal;
};

/// golden_prediction_test's training scenario: 240 rows over 6
/// attributes, a ramp into an anomalous plateau.
Rows golden_rows() {
  Rows out;
  Rng rng(17);
  for (std::size_t i = 0; i < 240; ++i) {
    const bool bad = i >= 160 && i < 200;
    std::vector<double> row;
    for (std::size_t a = 0; a < 6; ++a) {
      double base = 40.0 + 8.0 * static_cast<double>(a);
      if (bad) base *= 1.7;
      if (i >= 140 && i < 200) base += 0.5 * static_cast<double>(i - 140);
      row.push_back(base + rng.gaussian(0.0, 1.5));
    }
    out.rows.push_back(std::move(row));
    out.abnormal.push_back(bad);
  }
  return out;
}

/// table1_overhead's training data: 600 leak-shaped samples x 13
/// attributes.
Rows table1_rows() {
  Rows out;
  Rng rng(17);
  for (std::size_t i = 0; i < 600; ++i) {
    const bool abnormal = i > 400 && i < 480;
    std::vector<double> row;
    for (std::size_t a = 0; a < 13; ++a) {
      double base = 50.0 + 10.0 * static_cast<double>(a);
      if (abnormal) base *= 1.8;
      if (i > 340 && i <= 480) base += static_cast<double>(i - 340);
      row.push_back(base + rng.gaussian(0.0, 2.0));
    }
    out.rows.push_back(std::move(row));
    out.abnormal.push_back(abnormal);
  }
  return out;
}

/// FNV-1a 64 over the bit patterns of everything added.
class Digest {
 public:
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add_bits(bits);
  }
  void add(std::size_t x) { add_bits(static_cast<std::uint64_t>(x)); }
  void add(const std::vector<double>& xs) {
    add(xs.size());
    for (double x : xs) add(x);
  }
  void add(const std::vector<std::size_t>& xs) {
    add(xs.size());
    for (std::size_t x : xs) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  void add_bits(std::uint64_t bits) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (bits >> (8 * b)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

void add_tan(Digest* d, const TanClassifier& tan,
             const std::vector<std::size_t>& alphabet, bool tree) {
  const std::size_t n = alphabet.size();
  d->add(tan.parents());
  if (tree)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        d->add(tan.conditional_mutual_information(i, j));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = tan.parents()[i];
    const std::size_t parent_values =
        p == TanClassifier::kNoParent ? 1 : alphabet[p];
    for (bool c : {false, true})
      for (std::size_t pv = 0; pv < parent_values; ++pv)
        for (std::size_t v = 0; v < alphabet[i]; ++v)
          d->add(tan.likelihood(i, BinIndex{v}, BinIndex{pv}, c).value());
  }
  d->add(tan.prior(false).value());
  d->add(tan.prior(true).value());
}

/// Every smoothed transition cell of every attribute.
void add_bank(Digest* d, const MarkovBank& bank) {
  for (std::size_t i = 0; i < bank.attributes(); ++i) {
    const std::size_t k = bank.alphabet(i);
    std::size_t contexts = 1;
    for (std::size_t o = 0; o < bank.order(); ++o) contexts *= k;
    std::vector<std::size_t> context(bank.order());
    for (std::size_t c = 0; c < contexts; ++c) {
      std::size_t rest = c;
      for (std::size_t o = 0; o < bank.order(); ++o) {
        context[o] = rest % k;
        rest /= k;
      }
      for (std::size_t next = 0; next < k; ++next)
        d->add(bank.transition(i, context, BinIndex{next}).value());
    }
  }
}

/// Trains `predictor` on row-major samples.
void train_on_rows(AnomalyPredictor* predictor, const Rows& data) {
  std::vector<std::vector<double>> columns(data.rows.front().size());
  for (const auto& row : data.rows)
    for (std::size_t i = 0; i < row.size(); ++i) columns[i].push_back(row[i]);
  predictor->train(columns, data.abnormal);
}

std::uint64_t trained_tables_digest(const Rows& data, double alpha) {
  Digest d;
  const std::size_t n = data.rows.front().size();
  const std::size_t samples = data.rows.size();

  // Discretizers as AnomalyPredictor fits them (normal rows only), for
  // every grid kind, with and without guard bins.
  std::vector<Discretizer> grids;
  for (auto kind : {DiscretizerKind::kEqualWidth, DiscretizerKind::kQuantile})
    for (bool guard : {false, true})
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> fit;
        for (std::size_t r = 0; r < samples; ++r)
          if (!data.abnormal[r]) fit.push_back(data.rows[r][i]);
        Discretizer grid(5, kind, 0.05, guard);
        grid.fit(fit);
        d.add(grid.cuts());
        d.add(grid.centers());
        d.add(grid.fit_counts());
        grids.push_back(grid);
      }

  // The default grid (equal width, no guard bins) feeds the models.
  LabeledDataset symbols;
  std::vector<std::vector<std::size_t>> sequences(n);
  for (std::size_t i = 0; i < n; ++i) {
    symbols.alphabet.push_back(grids[i].bins());
    for (std::size_t r = 0; r < samples; ++r)
      sequences[i].push_back(grids[i].discretize(data.rows[r][i]));
  }
  for (std::size_t r = 0; r < samples; ++r) {
    std::vector<std::size_t> row(n);
    for (std::size_t i = 0; i < n; ++i) row[i] = sequences[i][r];
    symbols.rows.push_back(std::move(row));
  }
  symbols.abnormal = data.abnormal;

  for (std::size_t order : {1, 2}) {
    MarkovBank bank(order, symbols.alphabet, 0.05);
    bank.train(sequences);
    add_bank(&d, bank);
  }
  for (bool tree : {true, false}) {
    TanClassifier tan(alpha, tree);
    tan.train(symbols);
    add_tan(&d, tan, symbols.alphabet, tree);
  }
  OutlierClassifier outlier(0.995, alpha, 1.25);
  outlier.train(symbols);
  d.add(outlier.parents());
  d.add(outlier.threshold());
  for (const auto& row : symbols.rows) d.add(outlier.surprisal(row));

  // The whole training path of one predictor, seen through its TAN and
  // a 24-step prediction.
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back("f" + std::to_string(i));
  PredictorConfig config;
  config.classifier_alpha = alpha;
  AnomalyPredictor predictor(names, config);
  train_on_rows(&predictor, data);
  std::vector<std::size_t> alphabet;
  for (std::size_t i = 0; i < n; ++i)
    alphabet.push_back(predictor.attribute_alphabet(i));
  add_tan(&d, dynamic_cast<const TanClassifier&>(predictor.classifier()),
          alphabet, true);
  d.add(predictor.train_tpr());
  const auto result = predictor.predict(TickIndex{24});
  d.add(result.classification.score.value());
  d.add(result.classification.impacts);
  d.add(result.predicted_values);
  return d.value();
}

TEST(TrainedTables, DigestsArePinned) {
  struct Case {
    const char* dataset;
    double alpha;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"golden", 0.5, 0x6c7b1a535c687845ULL},
      {"golden", 0.3, 0xfdd2ccc6202ebf03ULL},
      {"table1", 0.5, 0x734d98d64887901dULL},
      {"table1", 0.3, 0x05f8cb523876fc94ULL},
  };
  const Rows golden = golden_rows();
  const Rows table1 = table1_rows();
  for (const Case& c : cases) {
    const Rows& data = std::string(c.dataset) == "golden" ? golden : table1;
    const std::uint64_t digest = trained_tables_digest(data, c.alpha);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, c.digest)
        << c.dataset << " alpha " << c.alpha << ": digest " << hex;
  }
}

}  // namespace
}  // namespace prepare
