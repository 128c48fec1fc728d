#include "models/discretizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace prepare {

Discretizer::Discretizer(std::size_t bins, DiscretizerKind kind,
                         double margin, bool guard_bins)
    : requested_bins_(bins),
      kind_(kind),
      margin_(margin),
      guard_bins_(guard_bins) {
  PREPARE_CHECK(bins >= 2);
  PREPARE_CHECK(margin >= 0.0);
}

void Discretizer::fit(const std::vector<double>& values,
                      const std::vector<bool>* exclude,
                      std::vector<std::size_t>* symbols) {
  PREPARE_CHECK(exclude == nullptr || exclude->size() == values.size());
  for (std::size_t r = 0; r < values.size(); ++r)
    PREPARE_CHECK(std::isfinite(values[r]))
        << "non-finite training value " << values[r] << " at index " << r;
  const auto used = [&](std::size_t r) {
    return exclude == nullptr || !(*exclude)[r];
  };
  // The used values' range (ties keep the first value seen). Equal-width
  // grids need nothing else; only quantile cuts sort a copy.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  std::vector<double> sorted;
  for (std::size_t r = 0; r < values.size(); ++r) {
    if (!used(r)) continue;
    lo = std::min(lo, values[r]);
    hi = std::max(hi, values[r]);
    if (kind_ == DiscretizerKind::kQuantile) sorted.push_back(values[r]);
  }
  PREPARE_CHECK_MSG(lo <= hi, "cannot fit discretizer on empty data");
  if (kind_ == DiscretizerKind::kQuantile) {
    std::sort(sorted.begin(), sorted.end());
    // The sorted ends, not the scanned ones: std::sort may put a zero of
    // the other sign first or last, and a quantile grid's edge-bin
    // center can carry that sign.
    lo = sorted.front();
    hi = sorted.back();
  }

  cuts_.clear();
  uniform_grid_ = false;
  // The range the interior cuts lie in.
  double inner_lo = lo, inner_hi = hi;
  if (kind_ == DiscretizerKind::kEqualWidth) {
    double span = hi - lo;
    double xlo = lo, xhi = hi;
    if (span <= 0.0) {
      const double pad = std::max(1.0, std::abs(lo)) * 0.01;
      xlo -= pad;
      xhi += pad;
      span = xhi - xlo;
    }
    xlo -= margin_ * span;
    xhi += margin_ * span;
    inner_lo = xlo;
    inner_hi = xhi;
    const double width = (xhi - xlo) / static_cast<double>(requested_bins_);
    for (std::size_t b = 1; b < requested_bins_; ++b)
      cuts_.push_back(xlo + width * static_cast<double>(b));
    // Guard cuts break the uniform spacing, so only the plain grid gets
    // the direct-index fast path.
    if (!guard_bins_ && width > 0.0) {
      uniform_grid_ = true;
      grid_lo_ = xlo;
      grid_inv_width_ = 1.0 / width;
    }
  } else {
    // Quantile cuts; duplicates (tied data) are merged.
    for (std::size_t b = 1; b < requested_bins_; ++b) {
      const double q = static_cast<double>(b) /
                       static_cast<double>(requested_bins_);
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1));
      const double cut = sorted[idx];
      if (cuts_.empty() || cut > cuts_.back()) cuts_.push_back(cut);
    }
    // Degenerate (constant) data: one artificial cut above the constant
    // so everything lands in bin 0 and outliers in bin 1.
    if (cuts_.empty())
      cuts_.push_back(lo + std::max(1.0, std::abs(lo)) * 0.01);
    // Drop a cut equal to the maximum (it would leave an empty top bin
    // reachable only by out-of-range values; keep it — outliers above
    // the training range are informative).
  }

  // Guard bins: cuts a margin beyond the observed data range, so only
  // values well outside anything seen in training land in dedicated,
  // never-trained-on bins (the margin absorbs small-sample noise). They
  // also stay outside the interior cuts: a constant column's padded
  // equal-width grid is wider than the pad.
  if (guard_bins_) {
    const double pad =
        std::max({1e-9, (hi - lo) * 2.0 * margin_, std::abs(hi) * 1e-9});
    cuts_.insert(cuts_.begin(), std::min(lo - pad, inner_lo));
    cuts_.push_back(std::max(hi + pad, inner_hi));
  }

  // Representative value per bin, derived from the actual cut geometry.
  // Interior bins are the midpoint of their two cuts. Edge bins are
  // half-open: when the data extreme lies inside the bin (the normal
  // case) the center is the midpoint of the extreme and the cut; with
  // guard bins the guard cut sits *beyond* the data extreme, so the
  // midpoint formula would invert — the guard bin instead mirrors half
  // the adjacent bin's width past its cut, keeping centers strictly
  // increasing in bin index.
  const std::size_t n_bins = cuts_.size() + 1;
  centers_.assign(n_bins, 0.0);
  for (std::size_t b = 1; b + 1 < n_bins; ++b)
    centers_[b] = 0.5 * (cuts_[b - 1] + cuts_[b]);
  const double edge_width =
      cuts_.size() >= 2 ? cuts_[1] - cuts_[0]
                        : std::max(1.0, std::abs(cuts_.front())) * 0.02;
  centers_.front() = lo <= cuts_.front()
                         ? 0.5 * (lo + cuts_.front())
                         : cuts_.front() - 0.5 * edge_width;
  const double top_width =
      cuts_.size() >= 2 ? cuts_[cuts_.size() - 1] - cuts_[cuts_.size() - 2]
                        : edge_width;
  // Strict: the top bin covers (cuts.back(), inf), so a maximum exactly
  // on the cut belongs to the bin below — the midpoint formula would
  // park the top center *on* the cut (and collapse onto the bottom
  // center when the data is constant).
  centers_.back() = hi > cuts_.back() ? 0.5 * (cuts_.back() + hi)
                                      : cuts_.back() + 0.5 * top_width;
#if PREPARE_DCHECK_IS_ON
  // Bin bounds invariant: interior cuts strictly ascending, so
  // lower_bound in discretize() maps each value to exactly one bin.
  for (std::size_t b = 1; b < cuts_.size(); ++b)
    PREPARE_DCHECK_LT(cuts_[b - 1], cuts_[b])
        << "cut points not strictly ascending at index " << b;
  // bin_center() must be strictly increasing in bin index — predicted
  // symbol distributions turn back into metric values through these, so
  // an inversion (the old guard-bin collapse) silently corrupts every
  // predicted_values readout.
  for (std::size_t b = 1; b < centers_.size(); ++b)
    PREPARE_DCHECK_LT(centers_[b - 1], centers_[b])
        << "bin centers not strictly increasing at bin " << b;
#endif
  fitted_ = true;

  // Training-data occupancy per effective bin: the drift detector's
  // baseline for the bin-occupancy shift comparison. Recorded after
  // fitted_ flips so discretize() is usable; every value is discretized
  // once, for its symbol and its count.
  fit_counts_.assign(bins(), 0.0);
  if (symbols != nullptr) symbols->resize(values.size());
  for (std::size_t r = 0; r < values.size(); ++r) {
    const std::size_t bin = bin_of(values[r]);
    if (symbols != nullptr) (*symbols)[r] = bin;
    if (used(r)) fit_counts_[bin] += 1.0;
  }
}

std::size_t Discretizer::bins() const {
  PREPARE_CHECK_MSG(fitted_, "bins() before fit()");
  return cuts_.size() + 1;
}

std::size_t Discretizer::discretize(double value) const {
  PREPARE_CHECK_MSG(fitted_, "discretizer used before fit()");
  PREPARE_CHECK(std::isfinite(value))
      << "cannot discretize non-finite value " << value;
  return bin_of(value);
}

std::size_t Discretizer::bin_of(double value) const {
  // Bin i covers (cuts[i-1], cuts[i]]; values above the last cut land in
  // the top bin.
  const std::size_t m = cuts_.size();
  std::size_t bin;
  if (uniform_grid_) {
    // Direct index into the uniform grid. The raw index can be off by
    // one at a cut boundary (cuts_[b] = xlo + width*b does not divide
    // back exactly), so a bounded fix-up restores the exact lower_bound
    // answer; each loop runs at most a step or two.
    const double raw = (value - grid_lo_) * grid_inv_width_;
    bin = raw <= 0.0
              ? 0
              : static_cast<std::size_t>(std::min(raw, static_cast<double>(m)));
    while (bin < m && cuts_[bin] < value) ++bin;
    while (bin > 0 && cuts_[bin - 1] >= value) --bin;
  } else {
    const auto it = std::lower_bound(cuts_.begin(), cuts_.end(), value);
    bin = static_cast<std::size_t>(it - cuts_.begin());
  }
  PREPARE_DCHECK_LT(bin, centers_.size()) << "bin index escaped the range";
  return bin;
}

std::vector<std::size_t> Discretizer::discretize(
    const std::vector<double>& xs) const {
  std::vector<std::size_t> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(discretize(x));
  return out;
}

double Discretizer::bin_center(BinIndex bin) const {
  PREPARE_CHECK(fitted_);
  PREPARE_CHECK_LT(bin.value(), centers_.size()) << "bin index out of range";
  return centers_[bin.value()];
}

std::vector<double> Discretizer::bin_centers() const {
  PREPARE_CHECK(fitted_);
  return centers_;
}

}  // namespace prepare
