#include "models/chow_liu.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace prepare {

namespace {

/// start + 1.0 + ... + 1.0 (m additions, left to right) for m up to a
/// bound, tabulated once per distinct start: the exact value of a
/// smoothed cell that starts at `start` after m matching rows.
class IncrementTable {
 public:
  explicit IncrementTable(std::size_t max_count) : max_count_(max_count) {}

  /// The table of `start`; stays valid while the IncrementTable lives.
  const double* from(double start) {
    for (std::size_t s = 0; s < starts_.size(); ++s)
      if (starts_[s] == start) return tables_[s].data();
    std::vector<double> table(max_count_ + 1);
    table[0] = start;
    for (std::size_t m = 1; m <= max_count_; ++m)
      table[m] = table[m - 1] + 1.0;
    starts_.push_back(start);
    tables_.push_back(std::move(table));
    return tables_.back().data();
  }

 private:
  std::size_t max_count_;
  std::vector<double> starts_;
  std::vector<std::vector<double>> tables_;
};

}  // namespace

PairCounts::PairCounts(const LabeledDataset& data, bool by_class, bool pairs)
    : alphabet_(data.alphabet), rows_(by_class ? 2 : 1, 0) {
  const std::size_t n = alphabet_.size();
  PREPARE_CHECK(data.rows.size() == data.abnormal.size());
  PREPARE_CHECK(data.rows.size() < std::numeric_limits<std::uint32_t>::max());
  offset_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    offset_[i] = symbols_;
    symbols_ += alphabet_[i];
  }
  marginal_.assign(rows_.size() * symbols_, 0);
  if (pairs) joint_.assign(rows_.size() * symbols_ * symbols_, 0);

  std::vector<std::size_t> symbol(n);
  for (std::size_t r = 0; r < data.rows.size(); ++r) {
    const std::vector<std::size_t>& row = data.rows[r];
    PREPARE_CHECK_EQ(row.size(), n) << "ragged training row " << r;
    for (std::size_t i = 0; i < n; ++i) {
      PREPARE_CHECK_LT(row[i], alphabet_[i])
          << "row " << r << " attribute " << i << " out of alphabet";
      symbol[i] = offset_[i] + row[i];
    }
    const std::size_t b = by_class && data.abnormal[r] ? 1 : 0;
    ++rows_[b];
    std::uint32_t* marginal = &marginal_[b * symbols_];
    for (std::size_t i = 0; i < n; ++i) ++marginal[symbol[i]];
    if (!pairs) continue;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t* line = &joint_[cell(b, symbol[i], 0)];
      for (std::size_t j = i + 1; j < n; ++j) ++line[symbol[j]];
    }
  }
}

std::vector<std::vector<double>> PairCounts::mutual_information(
    std::size_t bucket, double alpha) const {
  const std::size_t n = alphabet_.size();
  PREPARE_CHECK(n < 2 || !joint_.empty());
  const std::size_t n_c = rows_[bucket];
  std::vector<std::vector<double>> info(n, std::vector<double>(n, 0.0));
  IncrementTable smoothed(n_c);
  const double* joint_value = smoothed.from(alpha);
  std::vector<double> p_i, p_j;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t ki = alphabet_[i], kj = alphabet_[j];
      const double total =
          smoothed.from(alpha * static_cast<double>(ki * kj))[n_c];
      const double* mi = smoothed.from(alpha * static_cast<double>(kj));
      const double* mj = smoothed.from(alpha * static_cast<double>(ki));
      p_i.resize(ki);
      for (std::size_t vi = 0; vi < ki; ++vi)
        p_i[vi] = mi[marginal(bucket, i, vi)] / total;
      p_j.resize(kj);
      for (std::size_t vj = 0; vj < kj; ++vj)
        p_j[vj] = mj[marginal(bucket, j, vj)] / total;
      double sum = 0.0;
      for (std::size_t vi = 0; vi < ki; ++vi) {
        const std::uint32_t* line =
            &joint_[cell(bucket, offset_[i] + vi, offset_[j])];
        for (std::size_t vj = 0; vj < kj; ++vj) {
          const double p_joint = joint_value[line[vj]] / total;
          if (p_joint > 0.0)
            sum += p_joint * std::log(p_joint / (p_i[vi] * p_j[vj]));
        }
      }
      info[i][j] = info[j][i] = sum;
    }
  }
  return info;
}

std::vector<double> PairCounts::conditional_table(std::size_t bucket,
                                                  std::size_t i,
                                                  std::size_t parent) const {
  const std::size_t k = alphabet_[i];
  if (parent == kTreeRoot) {
    std::vector<double> table(k);
    for (std::size_t v = 0; v < k; ++v)
      table[v] = static_cast<double>(marginal(bucket, i, v));
    return table;
  }
  PREPARE_CHECK(!joint_.empty() && parent != i);
  std::vector<double> table(alphabet_[parent] * k);
  for (std::size_t pv = 0; pv < alphabet_[parent]; ++pv) {
    for (std::size_t v = 0; v < k; ++v) {
      const std::size_t a = offset_[parent] + pv, b = offset_[i] + v;
      table[pv * k + v] = static_cast<double>(
          joint_[parent < i ? cell(bucket, a, b) : cell(bucket, b, a)]);
    }
  }
  return table;
}

std::vector<std::size_t> max_spanning_tree(
    const std::vector<std::vector<double>>& weights) {
  const std::size_t n = weights.size();
  std::vector<std::size_t> parents(n, kTreeRoot);
  if (n <= 1) return parents;
  std::vector<bool> in_tree(n, false);
  std::vector<double> best_weight(n, -1.0);
  std::vector<std::size_t> best_from(n, kTreeRoot);
  in_tree[0] = true;
  for (std::size_t j = 1; j < n; ++j) {
    best_weight[j] = weights[0][j];
    best_from[j] = 0;
  }
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t pick = kTreeRoot;
    double pick_weight = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      if (best_weight[j] > pick_weight) {
        pick_weight = best_weight[j];
        pick = j;
      }
    }
    PREPARE_CHECK(pick != kTreeRoot) << "no finite edge weight left";
    in_tree[pick] = true;
    parents[pick] = best_from[pick];
    for (std::size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      if (weights[pick][j] > best_weight[j]) {
        best_weight[j] = weights[pick][j];
        best_from[j] = pick;
      }
    }
  }
  return parents;
}

}  // namespace prepare
