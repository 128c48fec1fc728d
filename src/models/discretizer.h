// Discretization of a continuous attribute.
//
// Both the Markov value predictors and the Bayesian classifiers operate
// on discretized attribute values (paper Fig. 2 shows an attribute
// "discretized into three single states").
//
// Two schemes:
//  * equal-width — fixed-width bins over the observed range (+margin);
//  * equal-frequency (default) — bin boundaries at quantiles of the
//    training data. Anomaly-era extremes would stretch equal-width bins
//    so far that the whole normal-to-degrading trajectory collapses into
//    one bin; quantile cuts keep resolution where the data actually
//    lives. Duplicate cut points (heavily tied data) are merged, so the
//    effective bin count can be smaller than requested — bins() reports
//    the effective count after fit().
#pragma once

#include <cstddef>
#include <vector>

#include "common/analyze_annotations.h"
#include "common/units.h"

namespace prepare {

enum class DiscretizerKind { kEqualWidth, kQuantile };

class Discretizer {
 public:
  /// `bins` >= 2 requested bins; `margin` expands the learned range for
  /// the equal-width scheme. With `guard_bins`, one extra bin is added
  /// beyond each edge that only values OUTSIDE the training range map
  /// to — training data never lands there, so a guard-bin symbol is
  /// maximally surprising to a density model (used by the unsupervised
  /// outlier detector).
  explicit Discretizer(std::size_t bins = 7,
                       DiscretizerKind kind = DiscretizerKind::kQuantile,
                       double margin = 0.05, bool guard_bins = false);

  /// Learns bin boundaries from `values`, skipping those whose
  /// `exclude` flag is set (all are used when `exclude` is null), and
  /// records the used values' occupancy in fit_counts(). With `symbols`,
  /// also writes every value's bin to (*symbols)[r]: each value is
  /// discretized once, for its symbol and its count. Every value must be
  /// finite, and at least one must be used.
  void fit(const std::vector<double>& values,
           const std::vector<bool>* exclude = nullptr,
           std::vector<std::size_t>* symbols = nullptr);

  /// Maps a value to its bin, clamping outliers to the edge bins.
  ///
  /// Hot path: for a plain equal-width grid (no guard bins) the bin is
  /// computed directly from the grid origin and width — one multiply
  /// plus a clamp — instead of a binary search. A local fix-up step
  /// keeps the result exactly equal to the `lower_bound` answer even
  /// when `value` sits on a cut, so both paths are bit-identical;
  /// quantile and guard grids take the general search.
  PREPARE_HOT std::size_t discretize(double value) const;
  std::vector<std::size_t> discretize(const std::vector<double>& xs) const;

  /// Representative (center) value of a bin — used to turn predicted
  /// symbol distributions back into metric values for reporting.
  double bin_center(BinIndex bin) const;
  std::vector<double> bin_centers() const;
  /// bin_centers() without the copy — the per-tick prediction path turns
  /// predicted distributions into expected metric values through this.
  const std::vector<double>& centers() const { return centers_; }

  /// Effective number of bins (== requested for equal-width; possibly
  /// fewer for quantile when the data is heavily tied).
  std::size_t bins() const;
  bool fitted() const { return fitted_; }
  DiscretizerKind kind() const { return kind_; }
  /// Interior cut points (ascending); bin i is (cut[i-1], cut[i]].
  const std::vector<double>& cuts() const { return cuts_; }
  /// Per-bin occupancy of the training data (one count per effective
  /// bin, recorded at the end of fit()). This is the bin-occupancy
  /// baseline the drift detector compares runtime symbols against.
  const std::vector<double>& fit_counts() const { return fit_counts_; }

 private:
  /// discretize() of a value known to be finite, on a fitted grid.
  std::size_t bin_of(double value) const;

  std::size_t requested_bins_;
  DiscretizerKind kind_;
  double margin_;
  bool guard_bins_;
  bool fitted_ = false;
  std::vector<double> cuts_;     ///< interior boundaries, ascending
  std::vector<double> centers_;  ///< representative value per bin
  std::vector<double> fit_counts_;  ///< training-data occupancy per bin

  /// Equal-width fast path: when the cut grid is uniform, bin lookup is
  /// (value - grid_lo_) * grid_inv_width_ with a clamp + exact fix-up.
  bool uniform_grid_ = false;
  double grid_lo_ = 0.0;
  double grid_inv_width_ = 0.0;
};

}  // namespace prepare
