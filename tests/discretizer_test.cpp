#include "models/discretizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace prepare {
namespace {

/// Reference bin assignment straight from the documented contract:
/// bin i covers (cuts[i-1], cuts[i]], i.e. lower_bound over the cuts.
std::size_t reference_bin(const std::vector<double>& cuts, double value) {
  return static_cast<std::size_t>(
      std::lower_bound(cuts.begin(), cuts.end(), value) - cuts.begin());
}
std::size_t reference_bin(const Discretizer& d, double value) {
  return reference_bin(d.cuts(), value);
}

/// The sort-based fit that the min/max scan replaced, kept as the
/// reference: the range comes from a sorted copy's ends. (Its guard
/// cuts also stay outside the interior grid, which the old fit missed
/// for constant columns.)
struct ReferenceFit {
  std::vector<double> cuts, centers, fit_counts;
};

ReferenceFit reference_fit(std::size_t bins, DiscretizerKind kind,
                           double margin, bool guard_bins,
                           const std::vector<double>& values) {
  ReferenceFit out;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted.front();
  const double hi = sorted.back();
  auto& cuts = out.cuts;
  double inner_lo = lo, inner_hi = hi;
  if (kind == DiscretizerKind::kEqualWidth) {
    double span = hi - lo;
    double xlo = lo, xhi = hi;
    if (span <= 0.0) {
      const double pad = std::max(1.0, std::abs(lo)) * 0.01;
      xlo -= pad;
      xhi += pad;
      span = xhi - xlo;
    }
    xlo -= margin * span;
    xhi += margin * span;
    inner_lo = xlo;
    inner_hi = xhi;
    const double width = (xhi - xlo) / static_cast<double>(bins);
    for (std::size_t b = 1; b < bins; ++b)
      cuts.push_back(xlo + width * static_cast<double>(b));
  } else {
    for (std::size_t b = 1; b < bins; ++b) {
      const double q = static_cast<double>(b) / static_cast<double>(bins);
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1));
      const double cut = sorted[idx];
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
    if (cuts.empty()) cuts.push_back(lo + std::max(1.0, std::abs(lo)) * 0.01);
  }
  if (guard_bins) {
    const double pad =
        std::max({1e-9, (hi - lo) * 2.0 * margin, std::abs(hi) * 1e-9});
    cuts.insert(cuts.begin(), std::min(lo - pad, inner_lo));
    cuts.push_back(std::max(hi + pad, inner_hi));
  }
  const std::size_t n_bins = cuts.size() + 1;
  auto& centers = out.centers;
  centers.assign(n_bins, 0.0);
  for (std::size_t b = 1; b + 1 < n_bins; ++b)
    centers[b] = 0.5 * (cuts[b - 1] + cuts[b]);
  const double edge_width = cuts.size() >= 2
                                ? cuts[1] - cuts[0]
                                : std::max(1.0, std::abs(cuts.front())) * 0.02;
  centers.front() = lo <= cuts.front() ? 0.5 * (lo + cuts.front())
                                       : cuts.front() - 0.5 * edge_width;
  const double top_width =
      cuts.size() >= 2 ? cuts[cuts.size() - 1] - cuts[cuts.size() - 2]
                       : edge_width;
  centers.back() = hi > cuts.back() ? 0.5 * (cuts.back() + hi)
                                    : cuts.back() + 0.5 * top_width;
  out.fit_counts.assign(n_bins, 0.0);
  for (double v : values) out.fit_counts[reference_bin(cuts, v)] += 1.0;
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bitwise equality, so +0.0 and -0.0 differ.
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(bits(got[i]), bits(want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
}

/// Fits `values` (skipping the excluded ones) and checks the grid, the
/// occupancy, the symbols and the bins of probes around every cut
/// against the sort-based reference fit of the used values.
void expect_matches_sorted_fit(std::size_t bins, DiscretizerKind kind,
                               double margin, bool guard_bins,
                               const std::vector<double>& values,
                               const std::vector<bool>* exclude = nullptr) {
  std::vector<double> used;
  for (std::size_t r = 0; r < values.size(); ++r)
    if (exclude == nullptr || !(*exclude)[r]) used.push_back(values[r]);
  const ReferenceFit ref = reference_fit(bins, kind, margin, guard_bins, used);
  Discretizer d(bins, kind, margin, guard_bins);
  std::vector<std::size_t> symbols;
  d.fit(values, exclude, &symbols);
  expect_same_bits(d.cuts(), ref.cuts, "cuts");
  expect_same_bits(d.centers(), ref.centers, "centers");
  expect_same_bits(d.fit_counts(), ref.fit_counts, "fit_counts");
  ASSERT_EQ(symbols.size(), values.size());
  for (std::size_t r = 0; r < values.size(); ++r)
    EXPECT_EQ(symbols[r], reference_bin(ref.cuts, values[r])) << "value " << r;
  std::vector<double> probes = {-1e9, -0.0, 0.0, 1e9};
  for (double cut : ref.cuts) {
    probes.push_back(cut);
    probes.push_back(std::nextafter(cut, 1e18));
    probes.push_back(std::nextafter(cut, -1e18));
  }
  for (double center : ref.centers) probes.push_back(center);
  for (double x : probes)
    EXPECT_EQ(d.discretize(x), reference_bin(ref.cuts, x)) << "at " << x;
}

TEST(Discretizer, RejectsBadConstruction) {
  EXPECT_THROW(Discretizer(1), CheckFailure);
  EXPECT_THROW(Discretizer(4, DiscretizerKind::kEqualWidth, -0.1),
               CheckFailure);
}

TEST(Discretizer, UseBeforeFitThrows) {
  Discretizer d(4);
  EXPECT_THROW(d.discretize(1.0), CheckFailure);
  EXPECT_THROW(d.bins(), CheckFailure);
  EXPECT_THROW(d.bin_center(BinIndex{0}), CheckFailure);
}

TEST(Discretizer, FitOnEmptyThrows) {
  Discretizer d(4);
  EXPECT_THROW(d.fit({}), CheckFailure);
}

TEST(EqualWidth, PartitionsRange) {
  Discretizer d(4, DiscretizerKind::kEqualWidth, 0.0);
  d.fit({0.0, 100.0});
  EXPECT_EQ(d.bins(), 4u);
  EXPECT_EQ(d.discretize(10.0), 0u);
  EXPECT_EQ(d.discretize(30.0), 1u);
  EXPECT_EQ(d.discretize(60.0), 2u);
  EXPECT_EQ(d.discretize(90.0), 3u);
}

TEST(EqualWidth, ClampsOutliers) {
  Discretizer d(4, DiscretizerKind::kEqualWidth, 0.0);
  d.fit({0.0, 100.0});
  EXPECT_EQ(d.discretize(-50.0), 0u);
  EXPECT_EQ(d.discretize(1e9), 3u);
}

TEST(EqualWidth, ConstantDataStillWorks) {
  Discretizer d(4, DiscretizerKind::kEqualWidth);
  d.fit({5.0, 5.0, 5.0});
  EXPECT_LT(d.discretize(4.0), d.bins());
  EXPECT_LT(d.discretize(6.0), d.bins());
}

TEST(EqualWidth, CentersAreMonotone) {
  Discretizer d(6, DiscretizerKind::kEqualWidth);
  d.fit({0.0, 60.0});
  const auto centers = d.bin_centers();
  ASSERT_EQ(centers.size(), 6u);
  for (std::size_t i = 1; i < centers.size(); ++i)
    EXPECT_GT(centers[i], centers[i - 1]);
}

TEST(Quantile, EqualMassBins) {
  Discretizer d(4, DiscretizerKind::kQuantile);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(static_cast<double>(i));
  d.fit(xs);
  EXPECT_EQ(d.bins(), 4u);
  // Roughly a quarter of the data per bin.
  std::vector<int> counts(4, 0);
  for (double x : xs) counts[d.discretize(x)]++;
  for (int c : counts) EXPECT_NEAR(c, 25, 2);
}

TEST(Quantile, SkewedDataKeepsResolutionInBulk) {
  // 90% of the mass near zero, 10% extreme outliers: the bulk must not
  // collapse into a single bin (the equal-width failure mode).
  std::vector<double> xs;
  for (int i = 0; i < 90; ++i) xs.push_back(static_cast<double>(i) * 0.01);
  for (int i = 0; i < 10; ++i) xs.push_back(1000.0 + i);
  Discretizer q(5, DiscretizerKind::kQuantile);
  q.fit(xs);
  EXPECT_GT(q.discretize(0.6), q.discretize(0.2));

  Discretizer e(5, DiscretizerKind::kEqualWidth, 0.0);
  e.fit(xs);
  EXPECT_EQ(e.discretize(0.6), e.discretize(0.2));  // all bulk in bin 0
}

TEST(Quantile, TiedDataMergesBins) {
  std::vector<double> xs(100, 7.0);
  xs.push_back(9.0);
  Discretizer d(5, DiscretizerKind::kQuantile);
  d.fit(xs);
  EXPECT_LT(d.bins(), 5u);
  EXPECT_GE(d.bins(), 2u);
  EXPECT_LT(d.discretize(7.0), d.discretize(9.0));
}

TEST(Quantile, ConstantDataYieldsTwoBins) {
  Discretizer d(5, DiscretizerKind::kQuantile);
  d.fit(std::vector<double>(50, 3.0));
  EXPECT_EQ(d.bins(), 2u);
  EXPECT_EQ(d.discretize(3.0), 0u);
  EXPECT_EQ(d.discretize(100.0), 1u);
}

TEST(Discretizer, VectorOverload) {
  Discretizer d(4, DiscretizerKind::kEqualWidth, 0.0);
  d.fit({0.0, 100.0});
  const auto bins = d.discretize(std::vector<double>{10.0, 90.0});
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0], 0u);
  EXPECT_EQ(bins[1], 3u);
}

TEST(EqualWidth, ValueExactlyOnCutBelongsToLowerBin) {
  // Bin i is (cuts[i-1], cuts[i]]: a value sitting exactly on a cut is
  // the closed upper end of the lower bin. The uniform-grid fast path
  // must agree even though the direct index computation rounds the
  // other way.
  Discretizer d(4, DiscretizerKind::kEqualWidth, 0.0);
  d.fit({0.0, 100.0});
  ASSERT_EQ(d.cuts().size(), 3u);
  for (std::size_t c = 0; c < d.cuts().size(); ++c) {
    const double cut = d.cuts()[c];
    EXPECT_EQ(d.discretize(cut), c) << "on cut " << cut;
    EXPECT_EQ(d.discretize(std::nextafter(cut, 1e18)), c + 1)
        << "just above cut " << cut;
    EXPECT_EQ(d.discretize(std::nextafter(cut, -1e18)), c)
        << "just below cut " << cut;
  }
}

TEST(EqualWidth, FastPathMatchesBinarySearch) {
  // The direct-index fast path must be bit-identical to the general
  // lower_bound answer everywhere, including at and around every cut
  // and far outside the grid.
  Discretizer d(7, DiscretizerKind::kEqualWidth);
  d.fit({-3.0, 41.7});
  std::vector<double> probes = {-1e9, -3.0, 0.0, 41.7, 1e9};
  for (double x = -10.0; x <= 50.0; x += 0.037) probes.push_back(x);
  for (double cut : d.cuts()) {
    probes.push_back(cut);
    probes.push_back(std::nextafter(cut, 1e18));
    probes.push_back(std::nextafter(cut, -1e18));
  }
  for (double x : probes)
    EXPECT_EQ(d.discretize(x), reference_bin(d, x)) << "at " << x;
  // Grids from a min/max scan, bitwise the sort-based ones: a zero
  // extreme of either sign, margin 0, constant and one-element columns.
  for (double margin : {0.0, 0.05})
    for (const std::vector<double>& xs :
         {std::vector<double>{-3.0, 41.7}, {0.0, -0.0, 12.5}, {-0.0, 0.0, 12.5},
          {-12.5, 0.0, -0.0}, {-12.5, -0.0, 0.0}, {7.0, 7.0, 7.0}, {-2.5}})
      expect_matches_sorted_fit(7, DiscretizerKind::kEqualWidth, margin,
                                /*guard_bins=*/false, xs);
}

TEST(GuardBins, RoundTripThroughCenters) {
  // bin_center must land strictly inside its own bin for every bin —
  // including the guard bins past the training range, where the old
  // center formula collapsed onto the neighbouring bin.
  for (auto kind : {DiscretizerKind::kEqualWidth, DiscretizerKind::kQuantile}) {
    Discretizer d(5, kind, 0.05, /*guard_bins=*/true);
    std::vector<double> xs;
    for (int i = 0; i <= 100; ++i) xs.push_back(static_cast<double>(i));
    d.fit(xs);
    for (std::size_t b = 0; b < d.bins(); ++b)
      EXPECT_EQ(d.discretize(d.bin_center(BinIndex{b})), b)
          << "kind " << static_cast<int>(kind) << " bin " << b;
  }
}

TEST(GuardBins, CentersAreStrictlyMonotone) {
  Discretizer d(4, DiscretizerKind::kEqualWidth, 0.05, /*guard_bins=*/true);
  d.fit({10.0, 20.0});
  const auto centers = d.bin_centers();
  ASSERT_EQ(centers.size(), d.bins());
  for (std::size_t b = 1; b < centers.size(); ++b)
    EXPECT_LT(centers[b - 1], centers[b]) << "at bin " << b;
  // Guard bins only catch values beyond the training range.
  EXPECT_EQ(d.discretize(10.0), 1u);
  EXPECT_EQ(d.discretize(20.0), d.bins() - 2);
  EXPECT_EQ(d.discretize(-1e6), 0u);
  EXPECT_EQ(d.discretize(1e6), d.bins() - 1);
}

TEST(Quantile, TiedDataCentersStayMonotone) {
  // Heavily tied training data merges quantile cuts; the centers of the
  // surviving bins must still be strictly increasing (and round-trip).
  std::vector<double> xs(100, 7.0);
  xs.push_back(9.0);
  xs.push_back(9.5);
  Discretizer d(5, DiscretizerKind::kQuantile);
  d.fit(xs);
  const auto centers = d.bin_centers();
  for (std::size_t b = 1; b < centers.size(); ++b)
    EXPECT_LT(centers[b - 1], centers[b]) << "at bin " << b;
  for (std::size_t b = 0; b < d.bins(); ++b)
    EXPECT_EQ(d.discretize(d.bin_center(BinIndex{b})), b) << "bin " << b;
}

TEST(EqualWidth, ConstantDataCentersStayMonotone) {
  // Constant data pads an artificial range; the degenerate-but-legal
  // geometry must still produce strictly increasing centers.
  Discretizer d(4, DiscretizerKind::kEqualWidth);
  d.fit({5.0, 5.0, 5.0});
  const auto centers = d.bin_centers();
  for (std::size_t b = 1; b < centers.size(); ++b)
    EXPECT_LT(centers[b - 1], centers[b]) << "at bin " << b;
}

// Property sweep: every value maps to a valid bin and bin assignment is
// monotone in the value.
class DiscretizerSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(DiscretizerSweep, ValidAndMonotone) {
  const auto [bins, kind_int] = GetParam();
  const auto kind = static_cast<DiscretizerKind>(kind_int);
  Discretizer d(bins, kind);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(i * i * 0.1);  // skewed
  d.fit(xs);
  std::size_t prev = 0;
  for (double x = -10.0; x < 5000.0; x += 13.0) {
    const std::size_t b = d.discretize(x);
    EXPECT_LT(b, d.bins());
    EXPECT_GE(b, prev);
    prev = b;
  }

  // Every grid matches the sort-based fit bit for bit, whatever the
  // extremes' zero signs (std::sort leaves the order of equal +-0
  // unspecified), margin and guard bins; an exclusion mask fits on the
  // remaining values but still discretizes all of them.
  std::vector<bool> every_third(xs.size());
  for (std::size_t r = 0; r < xs.size(); ++r) every_third[r] = r % 3 == 0;
  std::vector<std::vector<double>> inputs = {
      xs,
      {0.0, -0.0, 4.0, 9.0, -0.0},
      {-0.0, 0.0, 4.0, 9.0, 0.0},
      {-9.0, 0.0, -4.0, -0.0},
      {-9.0, -0.0, -4.0, 0.0},
      {0.0, -0.0, 0.0},
      {-0.0},
      {3.25, 3.25, 3.25},
      {-1e6},
  };
  // Long enough for std::sort to leave insertion sort: zero extremes of
  // both signs at both ends.
  std::vector<double> zeros;
  for (int i = 0; i < 40; ++i) zeros.push_back(i % 2 == 0 ? 0.0 : -0.0);
  zeros.push_back(6.0);
  inputs.push_back(zeros);
  for (double& z : zeros) z = -z;
  zeros.back() = -6.0;
  inputs.push_back(zeros);
  for (double margin : {0.0, 0.05})
    for (bool guard_bins : {false, true})
      for (const auto& values : inputs) {
        SCOPED_TRACE(::testing::Message()
                     << "margin " << margin << " guard " << guard_bins
                     << " values " << values.size());
        expect_matches_sorted_fit(bins, kind, margin, guard_bins, values);
      }
  expect_matches_sorted_fit(bins, kind, 0.05, false, xs, &every_third);

  // Non-finite values throw, excluded or not.
  const std::vector<bool> skip_last = {false, false, true};
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Discretizer fresh(bins, kind);
    EXPECT_THROW(fresh.fit({1.0, 2.0, bad}), CheckFailure);
    EXPECT_THROW(fresh.fit({1.0, 2.0, bad}, &skip_last), CheckFailure);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, DiscretizerSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 16),
                       ::testing::Values(0, 1)));

}  // namespace
}  // namespace prepare
