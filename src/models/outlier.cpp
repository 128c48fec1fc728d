#include "models/outlier.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace prepare {

OutlierClassifier::OutlierClassifier(double threshold_quantile, double alpha,
                                     double threshold_margin)
    : threshold_quantile_(threshold_quantile),
      alpha_(alpha),
      threshold_margin_(threshold_margin) {
  PREPARE_CHECK(threshold_quantile > 0.0 && threshold_quantile <= 1.0);
  PREPARE_CHECK(alpha > 0.0);
  PREPARE_CHECK(threshold_margin >= 1.0);
}

void OutlierClassifier::train(const LabeledDataset& data) {
  PREPARE_CHECK_MSG(!data.rows.empty(), "empty training set");
  PREPARE_CHECK(data.attributes() >= 1);
  alphabet_ = data.alphabet;
  const std::size_t n = data.attributes();
  // Chow-Liu tree over the pairwise (unconditional) mutual information,
  // and each attribute's counts given its parent, from one pass.
  const PairCounts counts(data, /*by_class=*/false, /*pairs=*/true);
  std::vector<std::vector<double>> mi = counts.mutual_information(0, alpha_);
  for (auto& row : mi)
    for (double& info : row) info = std::max(0.0, info);
  parents_ = max_spanning_tree(mi);
  table_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    table_[i] = counts.conditional_table(0, i, parents_[i]);
  trained_ = true;

  // Baselines and decision threshold from the training data itself.
  baseline_.assign(n, 0.0);
  std::vector<double> surprisals;
  surprisals.reserve(data.rows.size());
  for (const auto& row : data.rows) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pv = parents_[i] == kNoParent ? 0 : row[parents_[i]];
      const double s = local_surprisal(i, row[i], pv);
      baseline_[i] += s;
      total += s;
    }
    surprisals.push_back(total);
  }
  for (double& b : baseline_) b /= static_cast<double>(data.rows.size());
  threshold_ = percentile_of(surprisals, threshold_quantile_ * 100.0) *
               threshold_margin_;
}

double OutlierClassifier::local_surprisal(std::size_t attribute,
                                          std::size_t value,
                                          std::size_t parent_value) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(attribute < alphabet_.size());
  PREPARE_CHECK(value < alphabet_[attribute]);
  const std::size_t k = alphabet_[attribute];
  const std::size_t pv =
      parents_[attribute] == kNoParent ? 0 : parent_value;
  const auto& table = table_[attribute];
  const std::size_t base = pv * k;
  double row_total = 0.0;
  for (std::size_t v = 0; v < k; ++v) row_total += table[base + v];
  const double p = (table[base + value] + alpha_) /
                   (row_total + alpha_ * static_cast<double>(k));
  return -std::log(p);
}

double OutlierClassifier::surprisal(
    const std::vector<std::size_t>& row) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(row.size() == alphabet_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const std::size_t pv = parents_[i] == kNoParent ? 0 : row[parents_[i]];
    total += local_surprisal(i, row[i], pv);
  }
  return total;
}

void OutlierClassifier::classify_into(const std::vector<std::size_t>& row,
                                      Classification* out) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(row.size() == alphabet_.size());
  PREPARE_CHECK(out != nullptr);
  // prepare-analyze: allow(hot-alloc): capacity-steady impacts reuse
  out->impacts.resize(row.size());
  double total = 0.0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const std::size_t pv = parents_[i] == kNoParent ? 0 : row[parents_[i]];
    const double s = local_surprisal(i, row[i], pv);
    out->impacts[i] = s - baseline_[i];
    total += s;
  }
  out->score = LogOdds{total - threshold_};
  out->abnormal = out->score > 0.0;
}

void OutlierClassifier::classify_expected_into(
    const std::vector<Distribution>& dists, Classification* out) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(dists.size() == alphabet_.size());
  PREPARE_CHECK(out != nullptr);
  // prepare-analyze: allow(hot-alloc): capacity-steady impacts reuse
  out->impacts.resize(dists.size());
  double total = 0.0;
  for (std::size_t i = 0; i < dists.size(); ++i) {
    PREPARE_CHECK(dists[i].size() == alphabet_[i]);
    const std::size_t pv =
        parents_[i] == kNoParent ? 0 : dists[parents_[i]].mode();
    double expected = 0.0;
    for (std::size_t v = 0; v < alphabet_[i]; ++v)
      if (dists[i][v] > 0.0)
        expected += dists[i][v] * local_surprisal(i, v, pv);
    out->impacts[i] = expected - baseline_[i];
    total += expected;
  }
  out->score = LogOdds{total - threshold_};
  out->abnormal = out->score > 0.0;
}

}  // namespace prepare
