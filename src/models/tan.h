// Tree-Augmented Naive Bayes (TAN) classifier (Cohen et al., OSDI'04 [12];
// paper Section II-B/II-C).
//
// Structure learning follows Friedman's classic construction: compute the
// class-conditional mutual information I(A_i; A_j | C) for every
// attribute pair, build the maximum-weight spanning tree over attributes,
// and orient it from a root — each attribute then has the class plus at
// most one other attribute as parents. CPTs use Laplace smoothing.
//
// The per-attribute impact strength L_i (Eq. 2),
//
//   L_i = log[ P(a_i | a_pi, C=1) / P(a_i | a_pi, C=0) ],
//
// is exposed for both concrete samples and predicted value distributions;
// Classification::score is exactly the left-hand side of Eq. (1).
//
// Without the tree (every attribute's only parent is the class) this is
// the naive Bayes classifier of the authors' earlier ALERT work [10],
// kept for the TAN-vs-NB ablation: the paper adopts TAN because naive
// Bayes "cannot provide the metric attribution information accurately"
// (Section II-B).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/analyze_annotations.h"
#include "models/chow_liu.h"
#include "models/classifier.h"

namespace prepare {

class TanClassifier : public Classifier {
 public:
  /// `tree` = false skips structure learning and leaves every attribute
  /// at kNoParent: naive Bayes.
  explicit TanClassifier(double alpha = 1.0, bool tree = true);

  void train(const LabeledDataset& data) override;
  bool trained() const override { return trained_; }
  PREPARE_HOT void classify_into(const std::vector<std::size_t>& row,
                                 Classification* out) const override;
  PREPARE_HOT void classify_expected_into(const std::vector<Distribution>& dists,
                                          Classification* out) const override;
  PREPARE_HOT LogOdds score(const std::vector<std::size_t>& row) const override;
  CptStats cpt_stats() const override;
  bool score_decomposable() const override { return true; }
  LogOdds prior_log_odds() const override { return LogOdds{log_prior_odds_}; }

  /// parent(i) = index of attribute i's attribute-parent, or kNoParent
  /// for the root (whose only parent is the class node).
  static constexpr std::size_t kNoParent = kTreeRoot;
  const std::vector<std::size_t>& parents() const { return parents_; }

  /// Smoothed P(a_i = v | a_pi = pv, C = c); for the root, pv is ignored.
  Probability likelihood(std::size_t attribute, BinIndex value,
                         BinIndex parent_value, bool abnormal) const;
  Probability prior(bool abnormal) const;

  /// Class-conditional mutual information I(A_i; A_j | C) from the last
  /// training set (exposed for tests; symmetric). Only learned with the
  /// tree.
  double conditional_mutual_information(std::size_t i, std::size_t j) const;

 private:
  void learn_structure(const PairCounts& counts);
  void learn_cpts(const PairCounts& counts);
  void build_impact_tables();
  /// Fills cpt_stats_; the tables do not change between trainings.
  void summarize_cpts();
  double log_impact(std::size_t attribute, std::size_t value,
                    std::size_t parent_value) const {
    return impact_table_[attribute]
                        [parent_value * alphabet_[attribute] + value];
  }

  double alpha_;
  bool tree_;
  bool trained_ = false;
  std::vector<std::size_t> alphabet_;
  std::vector<std::size_t> parents_;
  std::vector<std::vector<double>> cmi_;  // pairwise I(A_i; A_j | C)

  /// cpt_[c][i] is a table of size alphabet[pi] x alphabet[i]
  /// (row-major; a single row of size alphabet[i] for the root).
  std::array<std::vector<std::vector<double>>, 2> cpt_;
  std::array<double, 2> class_counts_ = {0.0, 0.0};

  /// Precomputed log-CPT fast path (built once per train): the score and
  /// every per-attribute impact L_i reduce to summed table lookups, with
  /// no std::log on the classify path.
  ///
  /// impact_table_[i] mirrors cpt_'s row-major layout and holds
  /// L_i(v, pv) = log[P(v | pv, C=1) / P(v | pv, C=0)]; cells whose
  /// smoothed-count ratio underflows (tiny alpha, rare bins) are rebuilt
  /// as a difference of log-likelihoods, which cannot underflow, so
  /// every table cell — and thus every emitted score/impact — is finite.
  std::vector<std::vector<double>> impact_table_;
  double log_prior_odds_ = 0.0;
  /// cpt_stats(), computed once per train().
  CptStats cpt_stats_;
};

}  // namespace prepare
