// MarkovBank: the order-n Markov look-ahead for all of a component's
// attributes.
//
// The MarkovChain, TwoDependentMarkov and NDependentMarkov suites keep
// the names of the order-1 (simple), order-2 (the paper's 2-dependent)
// and order-n models they were first written for; each now runs on a
// bank of that order. The MarkovBank suite pins the batched kernel
// bit-for-bit against a per-attribute scalar Chapman–Kolmogorov push
// built from the public transition(), across orders, bank widths (one
// lane group, exactly one, one past it, several), mixed alphabets and
// horizons. The bank runs the widest step kernel the host supports;
// the MarkovKernel suites pin every other kernel the host can run to
// the 16-byte one.
#include "models/markov_bank.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "models/discretizer.h"
#include "models/markov_kernel.h"

namespace prepare {
namespace {

std::vector<std::size_t> random_sequence(std::size_t n, std::size_t k,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> seq;
  for (std::size_t i = 0; i < n; ++i)
    seq.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(k) - 1)));
  return seq;
}

/// Single-attribute bank trained on `seq`.
MarkovBank trained(std::size_t order, std::size_t alphabet, double alpha,
                   const std::vector<std::size_t>& seq) {
  MarkovBank bank(order, {alphabet}, alpha);
  bank.train({seq});
  return bank;
}

Distribution predict1(const MarkovBank& bank, std::size_t steps) {
  return bank.predict(TickIndex{steps})[0];
}

double transition1(const MarkovBank& bank,
                   const std::vector<std::size_t>& context,
                   std::size_t next) {
  return bank.transition(0, context, BinIndex{next}).value();
}

/// The scalar reference: attribute `attribute`'s one-hot context pushed
/// `steps` times in scatter order (sources ascending, zero-mass sources
/// skipped), marginalized onto the newest symbol and normalized. The
/// rows come from the bank's public transition().
std::vector<double> reference_prediction(
    const MarkovBank& bank, std::size_t attribute,
    const std::vector<std::size_t>& context, std::size_t steps) {
  const std::size_t a = bank.alphabet(attribute);
  const std::size_t order = bank.order();
  std::size_t states = 1;
  for (std::size_t i = 0; i < order; ++i) states *= a;
  std::vector<double> table(states * a);
  std::vector<std::size_t> digits(order);
  for (std::size_t ctx = 0; ctx < states; ++ctx) {
    for (std::size_t i = 0, rest = ctx; i < order; ++i, rest /= a)
      digits[order - 1 - i] = rest % a;
    for (std::size_t c = 0; c < a; ++c)
      table[ctx * a + c] =
          bank.transition(attribute, digits, BinIndex{c}).value();
  }
  std::size_t start = 0;
  for (std::size_t s : context) start = start * a + s;
  std::vector<double> v(states, 0.0);
  v[start] = 1.0;
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<double> next(states, 0.0);
    for (std::size_t ctx = 0; ctx < states; ++ctx) {
      const double mass = v[ctx];
      if (mass <= 0.0) continue;
      for (std::size_t c = 0; c < a; ++c)
        next[(ctx % (states / a)) * a + c] += mass * table[ctx * a + c];
    }
    v.swap(next);
  }
  std::vector<double> marginal(a, 0.0);
  for (std::size_t ctx = 0; ctx < states; ++ctx) marginal[ctx % a] += v[ctx];
  double total = 0.0;
  for (double x : marginal) total += x;
  for (double& x : marginal) x /= total;
  return marginal;
}

// ---- order 1: the simple chain ----

TEST(MarkovChain, RejectsBadConstruction) {
  EXPECT_THROW(MarkovBank(1, {1}), CheckFailure);
  EXPECT_THROW(MarkovBank(1, {4}, 0.0), CheckFailure);
}

TEST(MarkovChain, PredictBeforeContextThrows) {
  MarkovBank m(1, {3});
  EXPECT_FALSE(m.ready());
  EXPECT_THROW(m.predict(TickIndex{1}), CheckFailure);
  m.observe({0}, true);
  EXPECT_TRUE(m.ready());
  EXPECT_NO_THROW(m.predict(TickIndex{1}));
}

TEST(MarkovChain, TransitionRowsAreDistributions) {
  const MarkovBank m = trained(1, 4, 0.5, random_sequence(500, 4, 3));
  for (std::size_t from = 0; from < 4; ++from) {
    double total = 0.0;
    for (std::size_t to = 0; to < 4; ++to) total += transition1(m, {from}, to);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(MarkovChain, LearnsDeterministicCycle) {
  std::vector<std::size_t> seq;
  for (int i = 0; i < 300; ++i) seq.push_back(i % 3);
  const MarkovBank m = trained(1, 3, 0.01, seq);
  // Last symbol is 2; one step ahead must be 0, two steps 1, three 2.
  EXPECT_EQ(predict1(m, 1).mode(), 0u);
  EXPECT_EQ(predict1(m, 2).mode(), 1u);
  EXPECT_EQ(predict1(m, 3).mode(), 2u);
}

TEST(MarkovChain, MultiStepIsChapmanKolmogorov) {
  const MarkovBank m = trained(1, 3, 0.5, random_sequence(400, 3, 4));
  // P2[j] = sum_i P1[i] * T[i][j]
  const auto p1 = predict1(m, 1);
  const auto p2 = predict1(m, 2);
  for (std::size_t j = 0; j < 3; ++j) {
    double expect = 0.0;
    for (std::size_t i = 0; i < 3; ++i) expect += p1[i] * transition1(m, {i}, j);
    EXPECT_NEAR(p2[j], expect, 1e-9);
  }
}

TEST(MarkovChain, ObserveWithoutLearnOnlyMovesContext) {
  std::vector<std::size_t> seq;
  for (int i = 0; i < 300; ++i) seq.push_back(i % 3);
  MarkovBank learner = trained(1, 3, 0.01, seq);
  const double before = transition1(learner, {0}, 1);
  const double self_before = transition1(learner, {0}, 0);
  learner.observe({0}, /*learn=*/false);
  learner.observe({0}, /*learn=*/false);  // a 0->0 transition, not learned
  EXPECT_DOUBLE_EQ(transition1(learner, {0}, 1), before);
  EXPECT_DOUBLE_EQ(transition1(learner, {0}, 0), self_before);
  // The context did move: from 0, the next step follows row 0.
  EXPECT_EQ(predict1(learner, 1).mode(), 1u);
  learner.observe({0}, /*learn=*/true);  // now learned
  EXPECT_GT(transition1(learner, {0}, 0), self_before);
}

// ---- order 2: the paper's 2-dependent model ----

TEST(TwoDependentMarkov, RejectsBadConstruction) {
  EXPECT_THROW(MarkovBank(2, {1}), CheckFailure);
  EXPECT_THROW(MarkovBank(2, {4}, -1.0), CheckFailure);
}

TEST(TwoDependentMarkov, NeedsTwoObservations) {
  MarkovBank m(2, {3});
  EXPECT_FALSE(m.ready());
  m.observe({0}, true);
  EXPECT_FALSE(m.ready());
  EXPECT_THROW(m.predict(TickIndex{1}), CheckFailure);
  m.observe({1}, true);
  EXPECT_TRUE(m.ready());
  EXPECT_NO_THROW(m.predict(TickIndex{1}));
  m.observe({2}, true);
  EXPECT_TRUE(m.ready());
}

TEST(TwoDependentMarkov, TransitionRowsAreDistributions) {
  const MarkovBank m = trained(2, 3, 0.5, random_sequence(600, 3, 5));
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      double total = 0.0;
      for (std::size_t c = 0; c < 3; ++c) total += transition1(m, {a, b}, c);
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

TEST(TwoDependentMarkov, PredictionSumsToOne) {
  const MarkovBank m = trained(2, 4, 0.5, random_sequence(600, 4, 6));
  for (std::size_t steps : {1u, 2u, 5u, 24u})
    EXPECT_NEAR(predict1(m, steps).sum(), 1.0, 1e-9);
}

// The paper's motivating case (Section II-B): a triangle-wave attribute.
// At a given level the next value depends on the *slope*, which only the
// pair state captures: the simple chain is blind to direction.
std::vector<std::size_t> triangle_sequence(std::size_t period_up,
                                           int repeats) {
  std::vector<std::size_t> seq;
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t v = 0; v < period_up; ++v) seq.push_back(v);
    for (std::size_t v = period_up; v-- > 1;) seq.push_back(v);
  }
  return seq;
}

TEST(TwoDependentMarkov, TracksTriangleWaveSlope) {
  const auto seq = triangle_sequence(5, 60);  // 0..4..1 repeating
  const MarkovBank two = trained(2, 5, 0.05, seq);
  const MarkovBank one = trained(1, 5, 0.05, seq);
  // The sequence ends ... 3 2 1 (descending at 1): next is 0.
  EXPECT_EQ(predict1(two, 1).mode(), 0u);
  // The simple chain at state 1 is torn between 0 (down) and 2 (up);
  // measure probability mass instead of the tie-dependent mode.
  EXPECT_GT(predict1(two, 1)[0], 0.9);
  EXPECT_LT(predict1(one, 1)[0], 0.7);
}

TEST(TwoDependentMarkov, OutperformsSimpleOnRampForecast) {
  // Long rising ramps: from (prev<cur) the 2-dependent model keeps
  // climbing over multiple steps; the simple chain diffuses.
  std::vector<std::size_t> seq;
  for (int r = 0; r < 50; ++r)
    for (std::size_t v = 0; v < 8; ++v) seq.push_back(v);
  // Train on all but the tail, then predict from mid-ramp.
  const std::vector<std::size_t> train(seq.begin(), seq.end() - 5);
  const MarkovBank two = trained(2, 8, 0.05, train);
  const MarkovBank one = trained(1, 8, 0.05, train);
  // Context is ... 1 2 (ascending): three steps ahead should be 5.
  const auto p_two = predict1(two, 3);
  const auto p_one = predict1(one, 3);
  EXPECT_GT(p_two[5], p_one[5]);
  EXPECT_EQ(p_two.mode(), 5u);
}

TEST(TwoDependentMarkov, SymbolOutOfRangeThrows) {
  MarkovBank m(2, {3});
  EXPECT_THROW(m.observe({3}, true), CheckFailure);
  EXPECT_THROW(m.train({{0, 1, 3}}), CheckFailure);
  // A bad symbol in any attribute rejects the whole row, before any
  // context moves.
  MarkovBank wide(2, {3, 4});
  EXPECT_THROW(wide.observe({0, 4}, true), CheckFailure);
  EXPECT_FALSE(wide.ready());
  EXPECT_THROW(wide.observe({0}, true), CheckFailure);
}

// Property sweep: predictions are valid distributions for any horizon.
class MarkovHorizonSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarkovHorizonSweep, ValidDistributionAtAnyHorizon) {
  const auto seq = random_sequence(300, 5, 9);
  const MarkovBank one = trained(1, 5, 0.5, seq);
  const MarkovBank two = trained(2, 5, 0.5, seq);
  for (const auto& p : {predict1(one, GetParam()), predict1(two, GetParam())}) {
    EXPECT_NEAR(p.sum(), 1.0, 1e-9);
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_GE(p[i], 0.0);
      EXPECT_LE(p[i], 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Horizons, MarkovHorizonSweep,
                         ::testing::Values(1, 2, 3, 6, 9, 24, 100));

// ---- order n ----

TEST(NDependentMarkov, RejectsBadConstruction) {
  EXPECT_THROW(MarkovBank(0, {3}), CheckFailure);
  EXPECT_THROW(MarkovBank(1, {1}), CheckFailure);
  EXPECT_THROW(MarkovBank(2, {3}, 0.0), CheckFailure);
  EXPECT_THROW(MarkovBank(20, {10}), CheckFailure);  // 10^20 states
  EXPECT_THROW(MarkovBank(2, {}), CheckFailure);     // no attributes
  EXPECT_THROW(MarkovBank(2, {3, 1, 4}), CheckFailure);
}

TEST(NDependentMarkov, Order1MatchesSimpleChain) {
  const auto seq = random_sequence(500, 4, 1);
  const MarkovBank general = trained(1, 4, 0.5, seq);
  for (std::size_t steps : {1u, 3u, 7u}) {
    const auto a = predict1(general, steps);
    const auto b = reference_prediction(general, 0, {seq.back()}, steps);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(NDependentMarkov, Order2MatchesTwoDependent) {
  const auto seq = random_sequence(600, 3, 2);
  const MarkovBank general = trained(2, 3, 0.5, seq);
  const std::vector<std::size_t> context(seq.end() - 2, seq.end());
  for (std::size_t steps : {1u, 2u, 5u, 12u}) {
    const auto a = predict1(general, steps);
    const auto b = reference_prediction(general, 0, context, steps);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(NDependentMarkov, TransitionRowsAreDistributions) {
  const MarkovBank m = trained(3, 3, 0.5, random_sequence(800, 3, 3));
  std::vector<std::size_t> ctx(3);
  for (ctx[0] = 0; ctx[0] < 3; ++ctx[0])
    for (ctx[1] = 0; ctx[1] < 3; ++ctx[1])
      for (ctx[2] = 0; ctx[2] < 3; ++ctx[2]) {
        double total = 0.0;
        for (std::size_t n = 0; n < 3; ++n) total += transition1(m, ctx, n);
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
  EXPECT_THROW(m.transition(0, {0, 1}, BinIndex{0}), CheckFailure);
  EXPECT_THROW(m.transition(0, {0, 1, 3}, BinIndex{0}), CheckFailure);
  EXPECT_THROW(m.transition(1, {0, 1, 2}, BinIndex{0}), CheckFailure);
}

TEST(NDependentMarkov, ReadyNeedsOrderObservations) {
  MarkovBank m(3, {4});
  m.observe({0}, true);
  m.observe({1}, true);
  EXPECT_FALSE(m.ready());
  EXPECT_THROW(m.predict(TickIndex{1}), CheckFailure);
  m.observe({2}, true);
  EXPECT_TRUE(m.ready());
  EXPECT_NO_THROW(m.predict(TickIndex{2}));
  // A training sequence shorter than the order leaves the bank unready.
  m.train({{1, 2}});
  EXPECT_FALSE(m.ready());
  m.observe({3}, true);
  EXPECT_TRUE(m.ready());
}

TEST(NDependentMarkov, Order3DisambiguatesWhereOrder2CanNot) {
  // Period-6 wave 0 1 1 2 1 1 | ... : the order-2 context (1, 1) is
  // followed by 2 half the time (after 0 1 1) and by 0 the other half
  // (after 2 1 1); the order-3 context resolves the ambiguity.
  std::vector<std::size_t> seq;
  for (int r = 0; r < 100; ++r)
    for (std::size_t v : {0u, 1u, 1u, 2u, 1u, 1u}) seq.push_back(v);
  const MarkovBank three = trained(3, 3, 0.05, seq);
  const MarkovBank two = trained(2, 3, 0.05, seq);
  // Sequence ends ... 2 1 1: next must be 0.
  EXPECT_GT(predict1(three, 1)[0], 0.95);
  EXPECT_LT(predict1(two, 1)[0], 0.65);  // order-2 is torn between 0 and 2
}

TEST(NDependentMarkov, PredictionsAreValidDistributions) {
  const MarkovBank m = trained(3, 4, 0.2, random_sequence(500, 4, 5));
  for (std::size_t steps : {1u, 4u, 24u}) {
    const auto d = predict1(m, steps);
    EXPECT_NEAR(d.sum(), 1.0, 1e-9);
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_GE(d[i], 0.0);
  }
}

// Order sweep: every order learns the deterministic cycle it can encode.
class MarkovOrderSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarkovOrderSweep, LearnsCycle) {
  std::vector<std::size_t> seq;
  for (int r = 0; r < 200; ++r)
    for (std::size_t v = 0; v < 4; ++v) seq.push_back(v);
  const MarkovBank m = trained(GetParam(), 4, 0.05, seq);
  // Sequence ends at 3; one step ahead is 0, two ahead 1, ...
  EXPECT_EQ(predict1(m, 1).mode(), 0u);
  EXPECT_EQ(predict1(m, 2).mode(), 1u);
  EXPECT_EQ(predict1(m, 6).mode(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Orders, MarkovOrderSweep,
                         ::testing::Values(1, 2, 3, 4));

// ---- the batched kernel ----

/// A bank's worth of attributes with mixed alphabets, as a component's
/// discretizers produce them: quantile bins over tied data merge into
/// fewer than requested, and guard bins add two beyond the training
/// range. Runtime rows include out-of-range values, so contexts land in
/// guard bins too.
struct MixedFixture {
  std::vector<std::size_t> alphabets;
  std::vector<std::vector<std::size_t>> train;    // per attribute
  std::vector<std::vector<std::size_t>> runtime;  // per row
};

MixedFixture mixed_fixture(std::size_t width, std::uint64_t seed) {
  Rng rng(seed);
  MixedFixture f;
  f.train.resize(width);
  std::vector<Discretizer> grids;
  for (std::size_t a = 0; a < width; ++a) {
    const double grain = a % 4 == 0 ? 10.0 : 1.0;  // coarse: many ties
    std::vector<double> values;
    double level = 50.0;
    for (std::size_t t = 0; t < 240; ++t) {
      level += rng.gaussian(0.0, 3.0) + (t % 40 < 20 ? 0.5 : -0.5);
      values.push_back(std::round(level / grain) * grain);
    }
    Discretizer grid(5, DiscretizerKind::kQuantile, 0.05,
                     /*guard_bins=*/a % 3 == 1);
    grid.fit(values);
    f.alphabets.push_back(grid.bins());
    f.train[a] = grid.discretize(values);
    grids.push_back(grid);
  }
  for (std::size_t t = 0; t < 6; ++t) {
    std::vector<std::size_t> row;
    for (std::size_t a = 0; a < width; ++a) {
      const double far = t % 2 == 0 ? 1e6 : -1e6;
      row.push_back(grids[a].discretize(
          t == 3 ? far : rng.gaussian(50.0, 10.0)));
    }
    f.runtime.push_back(std::move(row));
  }
  return f;
}

class MarkovBankKernel
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

// Every lane of every group equals its attribute's scalar push, bit for
// bit (EXPECT_EQ, not EXPECT_DOUBLE_EQ's 4 ulps), after training and
// after runtime rows that learn, and the per-step modes are the modes
// of the final-step prediction of every shorter horizon.
TEST_P(MarkovBankKernel, BitIdenticalToScalarPush) {
  const auto [order, width] = GetParam();
  const MixedFixture f = mixed_fixture(width, 100 + order * 7 + width);
  MarkovBank bank(order, f.alphabets, 0.05);
  bank.train(f.train);
  std::vector<std::vector<std::size_t>> history = f.train;
  std::size_t widest = 0;
  for (std::size_t a : f.alphabets) widest = std::max(widest, a);
  if (width > 1) {
    EXPECT_LT(*std::min_element(f.alphabets.begin(), f.alphabets.end()),
              widest)
        << "fixture must pad some lanes";
  }
  for (std::size_t round = 0; round <= f.runtime.size(); ++round) {
    if (round > 0) {
      bank.observe(f.runtime[round - 1], /*learn=*/round % 2 == 1);
      for (std::size_t a = 0; a < width; ++a)
        history[a].push_back(f.runtime[round - 1][a]);
    }
    if (round % 3 != 0) continue;
    std::vector<Distribution> dists;
    std::vector<std::size_t> mode_row, modes;
    bank.predict_into(TickIndex{24}, &dists, &mode_row, &modes);
    ASSERT_EQ(dists.size(), width);
    ASSERT_EQ(mode_row.size(), width);
    ASSERT_EQ(modes.size(), 24 * width);
    for (std::size_t steps : {1u, 2u, 24u}) {
      const auto single = bank.predict(TickIndex{steps});
      for (std::size_t a = 0; a < width; ++a) {
        const std::vector<std::size_t> context(history[a].end() - order,
                                               history[a].end());
        const auto expected = reference_prediction(bank, a, context, steps);
        ASSERT_EQ(single[a].size(), f.alphabets[a]);
        for (std::size_t j = 0; j < expected.size(); ++j)
          EXPECT_EQ(single[a][j], expected[j])
              << "attribute " << a << " steps " << steps << " bin " << j;
      }
    }
    for (std::size_t s = 0; s < 24; ++s) {
      const auto single = bank.predict(TickIndex{s + 1});
      for (std::size_t a = 0; a < width; ++a)
        EXPECT_EQ(modes[s * width + a], single[a].mode())
            << "attribute " << a << " step " << s + 1;
    }
    const auto full = bank.predict(TickIndex{24});
    for (std::size_t a = 0; a < width; ++a) {
      EXPECT_EQ(dists[a].probabilities(), full[a].probabilities());
      EXPECT_EQ(mode_row[a], dists[a].mode()) << "attribute " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndWidths, MarkovBankKernel,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 13, 16, 17, 91)));

// Padding is invisible: an attribute's lane in a wide mixed bank (radix
// = the widest alphabet) gives exactly what a bank of that attribute
// alone gives, and so do its rows and row statistics.
TEST(MarkovBank, LanesMatchSingleAttributeBanks) {
  const MixedFixture f = mixed_fixture(17, 5);
  MarkovBank bank(2, f.alphabets, 0.05);
  bank.train(f.train);
  for (const auto& row : f.runtime) bank.observe(row, true);
  const auto wide = bank.predict(TickIndex{24});
  for (std::size_t a = 0; a < f.alphabets.size(); ++a) {
    MarkovBank alone = trained(2, f.alphabets[a], 0.05, f.train[a]);
    for (const auto& row : f.runtime) alone.observe({row[a]}, true);
    EXPECT_EQ(wide[a].probabilities(),
              alone.predict(TickIndex{24})[0].probabilities())
        << "attribute " << a;
    const auto s = bank.row_stats(a);
    const auto t = alone.row_stats(0);
    EXPECT_EQ(s.rows, f.alphabets[a] * f.alphabets[a]);
    EXPECT_EQ(s.rows, t.rows);
    EXPECT_EQ(s.occupied_rows, t.occupied_rows);
    EXPECT_EQ(s.entropy_sum, t.entropy_sum);
    EXPECT_EQ(s.entropy_max, t.entropy_max);
    EXPECT_EQ(s.count_total, t.count_total);
    EXPECT_EQ(bank.transition(a, {0, 1}, BinIndex{1}).value(),
              alone.transition(0, {0, 1}, BinIndex{1}).value());
  }
}

TEST(MarkovBank, RowStatsCountTransitions) {
  // 0 1 0 1 ... over 3 symbols at order 2: only contexts (0,1) and (1,0)
  // occur, each followed by one certain symbol.
  std::vector<std::size_t> seq;
  for (std::size_t i = 0; i < 50; ++i) seq.push_back(i % 2);
  MarkovBank bank = trained(2, 3, 0.5, seq);
  auto stats = bank.row_stats(0);
  EXPECT_EQ(stats.rows, 9u);
  EXPECT_EQ(stats.occupied_rows, 2u);
  EXPECT_DOUBLE_EQ(stats.count_total, 48.0);
  EXPECT_LT(stats.entropy_max, std::log(3.0));
  bank.observe({0}, /*learn=*/false);
  EXPECT_DOUBLE_EQ(bank.row_stats(0).count_total, 48.0);
  bank.observe({0}, /*learn=*/true);  // (1,0) -> 0: a new count
  stats = bank.row_stats(0);
  EXPECT_DOUBLE_EQ(stats.count_total, 49.0);
  EXPECT_EQ(stats.occupied_rows, 2u);
  EXPECT_THROW(bank.row_stats(1), CheckFailure);
}

TEST(MarkovBank, RetrainResetsCountsAndContext) {
  MarkovBank bank(2, {3, 3});
  bank.train({random_sequence(200, 3, 1), random_sequence(200, 3, 2)});
  bank.train({{0, 1, 2, 0, 1, 2}, {2, 2, 2, 2, 2, 2}});
  EXPECT_DOUBLE_EQ(bank.row_stats(0).count_total, 4.0);
  EXPECT_EQ(bank.row_stats(1).occupied_rows, 1u);
  const auto p = bank.predict(TickIndex{1});
  EXPECT_EQ(p[0].mode(), 0u);  // ... 1 2 -> 0
  EXPECT_EQ(p[1].mode(), 2u);
  EXPECT_THROW(bank.train({{0, 1}}), CheckFailure);          // one sequence
  EXPECT_THROW(bank.train({{0, 1}, {0, 1, 2}}), CheckFailure);  // lengths
}

/// row_stats() recomputed from the public transition(): every context
/// in attribute-radix order (the oldest symbol the most significant
/// digit), with each row's count total taken from the transitions of
/// the attribute's own `history`.
MarkovBank::RowStats reference_row_stats(
    const MarkovBank& bank, std::size_t attribute,
    const std::vector<std::size_t>& history) {
  const std::size_t a = bank.alphabet(attribute);
  const std::size_t order = bank.order();
  std::size_t rows = 1;
  for (std::size_t i = 0; i < order; ++i) rows *= a;
  std::vector<double> totals(rows, 0.0);
  for (std::size_t t = order; t < history.size(); ++t) {
    std::size_t row = 0;
    for (std::size_t i = t - order; i < t; ++i) row = row * a + history[i];
    totals[row] += 1.0;
  }
  MarkovBank::RowStats stats;
  stats.rows = rows;
  std::vector<std::size_t> context(order);
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t i = 0, rest = row; i < order; ++i, rest /= a)
      context[order - 1 - i] = rest % a;
    stats.count_total += totals[row];
    if (totals[row] == 0.0) continue;
    ++stats.occupied_rows;
    double entropy = 0.0;
    for (std::size_t c = 0; c < a; ++c) {
      const double p = bank.transition(attribute, context, BinIndex{c}).value();
      entropy -= p * std::log(p);
    }
    stats.entropy_sum += entropy;
    stats.entropy_max = std::max(stats.entropy_max, entropy);
  }
  return stats;
}

void expect_same_stats(const MarkovBank::RowStats& got,
                       const MarkovBank::RowStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.rows, want.rows) << where;
  EXPECT_EQ(got.occupied_rows, want.occupied_rows) << where;
  EXPECT_EQ(got.entropy_sum, want.entropy_sum) << where;
  EXPECT_EQ(got.entropy_max, want.entropy_max) << where;
  EXPECT_EQ(got.count_total, want.count_total) << where;
}

// row_stats() walks the rows in attribute-radix order and recomputes
// only the rows that changed since its last call; the result equals the
// reference bit for bit after training, after every learning observe(),
// and after a retrain whose rows keep their count totals but not their
// counts. An observe() that does not learn moves no count total, so it
// leaves the statistics as they were.
TEST(MarkovBank, RowStatsMatchRecomputation) {
  const std::vector<std::size_t> alphabets = {3, 5, 4};
  for (std::size_t order : {1u, 2u, 3u}) {
    std::vector<std::vector<std::size_t>> history;
    for (std::size_t a = 0; a < alphabets.size(); ++a)
      history.push_back(random_sequence(60, alphabets[a], 70 + a));
    MarkovBank bank(order, alphabets, 0.05, history);
    const std::vector<std::vector<std::size_t>> runtime = {
        random_sequence(40, 3, 80), random_sequence(40, 5, 81),
        random_sequence(40, 4, 82)};
    for (std::size_t t = 0; t <= 40; ++t) {
      if (t > 0) {
        std::vector<std::size_t> row;
        for (std::size_t a = 0; a < alphabets.size(); ++a) {
          row.push_back(runtime[a][t - 1]);
          history[a].push_back(runtime[a][t - 1]);
        }
        bank.observe(row, /*learn=*/true);
      }
      for (std::size_t a = 0; a < alphabets.size(); ++a)
        expect_same_stats(bank.row_stats(a),
                          reference_row_stats(bank, a, history[a]),
                          "order " + std::to_string(order) + " row " +
                              std::to_string(t) + " attribute " +
                              std::to_string(a));
    }
    std::vector<MarkovBank::RowStats> learned;
    for (std::size_t a = 0; a < alphabets.size(); ++a)
      learned.push_back(bank.row_stats(a));
    for (std::size_t t = 0; t < 5; ++t) {
      bank.observe({runtime[0][t], runtime[1][t], runtime[2][t]},
                   /*learn=*/false);
      for (std::size_t a = 0; a < alphabets.size(); ++a)
        expect_same_stats(bank.row_stats(a), learned[a],
                          "order " + std::to_string(order) +
                              " unlearned row " + std::to_string(t) +
                              " attribute " + std::to_string(a));
    }
  }
  // Order 1, two symbols: 0 0 1 1 0 counts 0->0, 0->1, 1->1, 1->0 and
  // 0 1 0 1 0 counts 0->1 twice and 1->0 twice. Both rows keep a total
  // of 2, but their entropies change.
  MarkovBank bank(1, {2}, 0.05, {{0, 0, 1, 1, 0}});
  const MarkovBank::RowStats before = bank.row_stats(0);
  bank.train({{0, 1, 0, 1, 0}});
  const MarkovBank::RowStats after = bank.row_stats(0);
  EXPECT_EQ(after.count_total, before.count_total);
  EXPECT_LT(after.entropy_sum, before.entropy_sum);
  expect_same_stats(after, reference_row_stats(bank, 0, {0, 1, 0, 1, 0}),
                    "after retrain");
}

// A corrupt model state still throws the CheckFailure of
// Distribution::normalize(): with an infinite pseudo-count every row is
// inf / inf = NaN, on the final step and on the per-step path alike.
TEST(MarkovBank, NonFiniteMassThrows) {
  MarkovBank bank(2, {3, 5}, std::numeric_limits<double>::infinity());
  bank.train({random_sequence(30, 3, 90), random_sequence(30, 5, 91)});
  std::vector<Distribution> dists;
  std::vector<std::size_t> mode_row, modes;
  for (std::vector<std::size_t>* sink :
       {static_cast<std::vector<std::size_t>*>(nullptr), &modes}) {
    try {
      bank.predict_into(TickIndex{3}, &dists, &mode_row, sink);
      ADD_FAILURE() << "a NaN look-ahead did not throw";
    } catch (const CheckFailure& e) {
      // With DCHECKs on, the step's mass-conservation check fires first.
      if (!PREPARE_DCHECK_IS_ON) {
        const std::string what = e.what();
        EXPECT_NE(what.find("non-finite mass"), std::string::npos) << what;
        EXPECT_NE(what.find("at symbol 0"), std::string::npos) << what;
      }
    }
  }
}

// ---- the step kernels ----

using markov_kernel::Kernel;
using markov_kernel::LaneRow;

std::string kernel_name(Kernel kernel) {
  return std::to_string(static_cast<int>(kernel)) + "-byte";
}

/// One lane group's inputs to a step at radix `width` and `order`. Lane
/// l has its own alphabet 2..width; its transition cells beyond that
/// alphabet, and the rows of states that hold such a symbol, are zero,
/// as the bank pads them. Its state masses are one-hot (l % 3 == 0),
/// random with exact zeros at about half the states (l % 3 == 1) or
/// random everywhere.
struct StepInputs {
  std::size_t width = 0, stride = 0;
  std::vector<LaneRow> v, probs;
};

StepInputs step_inputs(std::size_t width, std::size_t order, Rng& rng) {
  StepInputs in;
  std::size_t states = 1;
  for (std::size_t i = 0; i < order; ++i) states *= width;
  in.width = width;
  in.stride = states / width;
  in.v.assign(states, LaneRow{});
  in.probs.assign(states * width, LaneRow{});
  for (std::size_t l = 0; l < markov_kernel::kLanes; ++l) {
    const std::size_t alphabet = 2 + l % (width - 1);
    std::vector<std::size_t> reachable;
    for (std::size_t x = 0; x < states; ++x) {
      bool inside = true;
      for (std::size_t rest = x; rest > 0; rest /= width)
        inside = inside && rest % width < alphabet;
      if (!inside) continue;
      reachable.push_back(x);
      double total = 0.0;
      for (std::size_t c = 0; c < alphabet; ++c) {
        const double weight = rng.uniform(0.01, 1.0);
        in.probs[x * width + c].lane[l] = weight;
        total += weight;
      }
      for (std::size_t c = 0; c < alphabet; ++c)
        in.probs[x * width + c].lane[l] /= total;
    }
    if (l % 3 == 0) {
      const auto pick = rng.uniform_int(
          0, static_cast<std::int64_t>(reachable.size()) - 1);
      in.v[reachable[static_cast<std::size_t>(pick)]].lane[l] = 1.0;
      continue;
    }
    for (std::size_t x : reachable)
      if (l % 3 == 2 || rng.chance(0.5))
        in.v[x].lane[l] = rng.uniform(0.0, 1.0);
  }
  return in;
}

/// Three chained steps of `kernel`, each from its own previous output.
std::vector<std::vector<LaneRow>> three_steps(Kernel kernel,
                                              const StepInputs& in) {
  std::vector<std::vector<LaneRow>> out;
  const std::vector<LaneRow>* v = &in.v;
  for (int s = 0; s < 3; ++s) {
    std::vector<LaneRow> next(in.v.size(), LaneRow{});
    markov_kernel::step(kernel, v->data(), in.probs.data(), in.width,
                        in.stride, next.data());
    out.push_back(std::move(next));
    v = &out.back();
  }
  return out;
}

/// Parameter: a kernel's bytes per vector.
class MarkovKernelWidths : public ::testing::TestWithParam<int> {};

// Every wider kernel the host runs matches the 16-byte kernel bit for
// bit at radix 2..8 (the odd ones leave destinations after the last
// full chunk) and orders 1..3.
TEST_P(MarkovKernelWidths, MatchBaselineBitwise) {
  const auto kernel = static_cast<Kernel>(GetParam());
  if (!markov_kernel::supported(kernel))
    GTEST_SKIP() << kernel_name(kernel) << " kernel not supported here";
  RecordProperty("kernel", kernel_name(kernel));
  Rng rng(41);
  for (std::size_t width = 2; width <= 8; ++width) {
    for (std::size_t order = 1; order <= 3; ++order) {
      const StepInputs in = step_inputs(width, order, rng);
      const auto expected = three_steps(Kernel::k16, in);
      const auto got = three_steps(kernel, in);
      for (std::size_t s = 0; s < got.size(); ++s)
        for (std::size_t x = 0; x < in.v.size(); ++x)
          for (std::size_t l = 0; l < markov_kernel::kLanes; ++l)
            ASSERT_EQ(got[s][x].lane[l], expected[s][x].lane[l])
                << "width " << width << " order " << order << " step "
                << s + 1 << " state " << x << " lane " << l;
    }
  }
}

/// One marginal of `kernel` over the state vector `v`.
struct Marginal {
  bool ok = false;
  std::vector<LaneRow> p;
  LaneRow mode{};
};

Marginal marginal_of(Kernel kernel, const std::vector<LaneRow>& v,
                     std::size_t width, std::size_t stride,
                     std::size_t lanes) {
  Marginal m;
  m.p.assign(width, LaneRow{});
  m.ok = markov_kernel::marginal(kernel, v.data(), width, stride, lanes,
                                 m.p.data(), &m.mode);
  return m;
}

/// The state vectors a marginal reads: the inputs and the three steps
/// after them, each with lanes `lanes`.. zeroed, as the last lane group
/// of a bank leaves them.
std::vector<std::vector<LaneRow>> marginal_inputs(const StepInputs& in,
                                                  std::size_t lanes) {
  std::vector<std::vector<LaneRow>> vs = three_steps(Kernel::k16, in);
  vs.insert(vs.begin(), in.v);
  for (auto& v : vs)
    for (LaneRow& row : v)
      for (std::size_t l = lanes; l < markov_kernel::kLanes; ++l)
        row.lane[l] = 0.0;
  return vs;
}

// The wider marginals match the 16-byte one bit for bit, with the same
// verdict, at radix 2..8 and orders 1..3, with all 16 lanes used and
// with the last 3 zeroed.
TEST_P(MarkovKernelWidths, MarginalMatchesBaselineBitwise) {
  const auto kernel = static_cast<Kernel>(GetParam());
  if (!markov_kernel::supported(kernel))
    GTEST_SKIP() << kernel_name(kernel) << " kernel not supported here";
  Rng rng(47);
  for (std::size_t width = 2; width <= 8; ++width) {
    for (std::size_t order = 1; order <= 3; ++order) {
      const StepInputs in = step_inputs(width, order, rng);
      for (std::size_t lanes : {std::size_t{16}, std::size_t{13}}) {
        for (const auto& v : marginal_inputs(in, lanes)) {
          const Marginal want =
              marginal_of(Kernel::k16, v, width, in.stride, lanes);
          const Marginal got = marginal_of(kernel, v, width, in.stride, lanes);
          ASSERT_EQ(got.ok, want.ok) << "width " << width << " order " << order;
          if (!want.ok) continue;
          for (std::size_t l = 0; l < lanes; ++l) {
            ASSERT_EQ(got.mode.lane[l], want.mode.lane[l])
                << "width " << width << " order " << order << " lane " << l;
            for (std::size_t c = 0; c < width; ++c)
              ASSERT_EQ(got.p[c].lane[l], want.p[c].lane[l])
                  << "width " << width << " order " << order << " lane " << l
                  << " symbol " << c;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, MarkovKernelWidths,
                         ::testing::Values(32, 64));

// The 16-byte kernel evaluates the sum markov_kernel.h documents.
TEST(MarkovKernel, BaselineIsTheDocumentedSum) {
  Rng rng(43);
  for (std::size_t width = 2; width <= 8; ++width) {
    for (std::size_t order = 1; order <= 3; ++order) {
      const StepInputs in = step_inputs(width, order, rng);
      std::vector<LaneRow> next(in.v.size(), LaneRow{});
      markov_kernel::step(Kernel::k16, in.v.data(), in.probs.data(), width,
                          in.stride, next.data());
      for (std::size_t tail = 0; tail < in.stride; ++tail)
        for (std::size_t c = 0; c < width; ++c)
          for (std::size_t l = 0; l < markov_kernel::kLanes; ++l) {
            double sum = +0.0;
            for (std::size_t x1 = 0; x1 < width; ++x1) {
              const std::size_t src = x1 * in.stride + tail;
              sum += in.v[src].lane[l] * in.probs[src * width + c].lane[l];
            }
            ASSERT_EQ(next[tail * width + c].lane[l], sum)
                << "width " << width << " order " << order << " tail "
                << tail << " symbol " << c << " lane " << l;
          }
    }
  }
}

// The 16-byte marginal evaluates the sums, quotients and mode that
// markov_kernel.h documents, and declines exactly where it says.
TEST(MarkovKernel, MarginalIsTheDocumentedSum) {
  Rng rng(53);
  for (std::size_t width = 2; width <= 8; ++width) {
    for (std::size_t order = 1; order <= 3; ++order) {
      const StepInputs in = step_inputs(width, order, rng);
      for (std::size_t lanes : {std::size_t{16}, std::size_t{13}}) {
        for (const auto& v : marginal_inputs(in, lanes)) {
          const Marginal got =
              marginal_of(Kernel::k16, v, width, in.stride, lanes);
          bool ok = true;
          std::vector<std::vector<double>> sums(markov_kernel::kLanes);
          std::vector<double> totals(markov_kernel::kLanes, +0.0);
          for (std::size_t l = 0; l < markov_kernel::kLanes; ++l) {
            for (std::size_t c = 0; c < width; ++c) {
              double sum = +0.0;
              for (std::size_t pre = 0; pre < in.stride; ++pre)
                sum += v[pre * width + c].lane[l];
              sums[l].push_back(sum);
              totals[l] += sum;
              ok = ok && sum >= 0.0 && std::isfinite(sum);
            }
            if (l < lanes) ok = ok && totals[l] > 0.0;
          }
          ASSERT_EQ(got.ok, ok) << "width " << width << " order " << order;
          if (!ok) continue;
          for (std::size_t l = 0; l < lanes; ++l) {
            std::size_t mode = 0;
            for (std::size_t c = 0; c < width; ++c) {
              const double q = sums[l][c] / totals[l];
              ASSERT_EQ(got.p[c].lane[l], q)
                  << "width " << width << " order " << order << " lane " << l
                  << " symbol " << c;
              if (q > sums[l][mode] / totals[l]) mode = c;
            }
            ASSERT_EQ(got.mode.lane[l], static_cast<double>(mode))
                << "width " << width << " order " << order << " lane " << l;
          }
        }
      }
    }
  }
}

/// The kernels this host runs.
std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> kernels;
  for (Kernel kernel : {Kernel::k16, Kernel::k32, Kernel::k64})
    if (markov_kernel::supported(kernel)) kernels.push_back(kernel);
  return kernels;
}

// The mode compares quotients, not sums: symbols 0 and 1 have sums one
// ulp apart that divide to the same double, so the lower symbol wins,
// as in Distribution::mode(), although symbol 1's sum is larger.
TEST(MarkovKernel, MarginalTieGoesToTheLowerSymbol) {
  const double a = 1.9;
  const double b = std::nextafter(a, 2.0);
  double c = 0.0;
  for (double x = 1.0; x < 1.5 && c == 0.0; x += 1.0 / 1024) {
    const double total = ((+0.0 + a) + b) + x;
    if (a / total == b / total) c = x;
  }
  ASSERT_GT(c, 0.0) << "no tie found";
  std::vector<LaneRow> v(3, LaneRow{});
  for (std::size_t l = 0; l < markov_kernel::kLanes; ++l) {
    v[0].lane[l] = a;
    v[1].lane[l] = b;
    v[2].lane[l] = c;
  }
  for (Kernel kernel : supported_kernels()) {
    const Marginal m = marginal_of(kernel, v, 3, 1, markov_kernel::kLanes);
    ASSERT_TRUE(m.ok) << kernel_name(kernel);
    for (std::size_t l = 0; l < markov_kernel::kLanes; ++l) {
      EXPECT_EQ(m.p[0].lane[l], m.p[1].lane[l]) << kernel_name(kernel);
      EXPECT_EQ(m.mode.lane[l], 0.0) << kernel_name(kernel) << " lane " << l;
    }
  }
  Distribution d({a, b, c});
  d.normalize();
  EXPECT_EQ(d.mode(), 0u);
}

// Negative or non-finite mass in any lane, or an all-zero lane in use,
// makes every kernel decline and leave the undivided sums in p; an
// all-zero lane past `lanes` does not decline. The bank hands those sums
// to Distribution::normalize(), which throws naming the bad symbol. No
// state the bank builds holds negative mass (alpha > 0 and counts >= 0
// make every cell >= 0), so that message is checked here, not through
// predict_into().
TEST(MarkovKernel, MarginalDeclinesCorruptMass) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (Kernel kernel : supported_kernels()) {
    // Order 2, radix 3: nine states; lane l holds mass 1 at state l % 9.
    std::vector<LaneRow> clean(9, LaneRow{});
    for (std::size_t l = 0; l < markov_kernel::kLanes; ++l)
      clean[l % 9].lane[l] = 1.0;
    EXPECT_TRUE(marginal_of(kernel, clean, 3, 3, 16).ok);
    for (double bad : {-2.5, nan, inf, -inf}) {
      for (std::size_t lane : {0u, 7u, 15u}) {
        // State 4 is (1, 1): the bad mass lands in symbol 1's sum.
        std::vector<LaneRow> v = clean;
        v[4].lane[lane] = bad;
        for (std::size_t lanes : {16u, 8u}) {
          const Marginal m = marginal_of(kernel, v, 3, 3, lanes);
          EXPECT_FALSE(m.ok) << kernel_name(kernel) << " mass " << bad
                             << " lane " << lane << " of " << lanes;
          for (std::size_t l = 0; l < markov_kernel::kLanes; ++l) {
            for (std::size_t c = 0; c < 3; ++c) {
              const double sum = ((+0.0 + v[c].lane[l]) + v[3 + c].lane[l]) +
                                 v[6 + c].lane[l];
              const double got = m.p[c].lane[l];
              EXPECT_TRUE(got == sum || (std::isnan(got) && std::isnan(sum)))
                  << kernel_name(kernel) << " lane " << l << " symbol " << c
                  << ": " << got << " against " << sum;
            }
          }
          Distribution d({m.p[0].lane[lane], m.p[1].lane[lane],
                          m.p[2].lane[lane]});
          try {
            d.normalize();
            ADD_FAILURE() << "mass " << bad << " normalized";
          } catch (const CheckFailure& e) {
            const std::string what = e.what();
            const char* kind =
                std::isfinite(bad) ? "negative mass" : "non-finite mass";
            EXPECT_NE(what.find(kind), std::string::npos) << what;
            EXPECT_NE(what.find("at symbol 1"), std::string::npos) << what;
          }
        }
      }
    }
    std::vector<LaneRow> v = clean;
    for (LaneRow& row : v) row.lane[12] = 0.0;
    EXPECT_FALSE(marginal_of(kernel, v, 3, 3, 16).ok) << kernel_name(kernel);
    EXPECT_TRUE(marginal_of(kernel, v, 3, 3, 12).ok) << kernel_name(kernel);
  }
}

// The final mode row MarkovBank::marginalize reads from each kernel's
// marginal is Distribution::mode() of the distribution it returns, on
// every kernel the host runs: where the kernel accepts, its mode is the
// mode of its quotients; where it declines, the bank normalizes the sums
// it left and takes their mode, so an all-zero marginal in a lane in use
// turns uniform, with mode 0.
TEST(MarkovKernel, ModeRowIsTheDistributionMode) {
  for (Kernel kernel : supported_kernels()) {
    Rng rng(59);
    for (std::size_t width = 2; width <= 8; ++width) {
      for (std::size_t order = 1; order <= 3; ++order) {
        const StepInputs in = step_inputs(width, order, rng);
        for (std::size_t lanes : {std::size_t{16}, std::size_t{13}}) {
          std::vector<std::vector<LaneRow>> vs = marginal_inputs(in, lanes);
          const std::size_t zero_lane = lanes - 1;
          vs.push_back(vs.back());
          for (LaneRow& row : vs.back()) row.lane[zero_lane] = 0.0;
          for (std::size_t i = 0; i < vs.size(); ++i) {
            const bool zeroed = i + 1 == vs.size();
            const Marginal m =
                marginal_of(kernel, vs[i], width, in.stride, lanes);
            if (zeroed) {
              ASSERT_FALSE(m.ok) << kernel_name(kernel);
            }
            for (std::size_t l = 0; l < lanes; ++l) {
              // step_inputs() gives lane l this alphabet, as a bank pads.
              const std::size_t alphabet = 2 + l % (width - 1);
              Distribution d(alphabet);
              for (std::size_t c = 0; c < alphabet; ++c) d[c] = m.p[c].lane[l];
              if (!m.ok) {
                d.normalize();
              } else {
                ASSERT_EQ(static_cast<std::size_t>(m.mode.lane[l]), d.mode())
                    << kernel_name(kernel) << " width " << width << " order "
                    << order << " lane " << l;
              }
              if (zeroed && l == zero_lane) {
                EXPECT_EQ(d.probabilities(),
                          Distribution::uniform(alphabet).probabilities());
                EXPECT_EQ(d.mode(), 0u);
              }
            }
          }
        }
      }
    }
  }
}

// The bank returns an all-zero marginal as a uniform distribution with
// mode 0. With a pseudo-count of 1e308, alpha times the alphabet
// overflows, so every smoothed cell is 1e308 / inf = 0 and the state
// loses all its mass in the first step. With DCHECKs on, the step's
// mass-conservation check fires first.
TEST(MarkovBank, AllZeroMarginalTurnsUniform) {
  MarkovBank bank(2, {3, 5}, 1e308);
  bank.train({random_sequence(30, 3, 92), random_sequence(30, 5, 93)});
  std::vector<Distribution> dists;
  std::vector<std::size_t> mode_row, modes;
  if (PREPARE_DCHECK_IS_ON) {
    EXPECT_THROW(bank.predict_into(TickIndex{3}, &dists, &mode_row, &modes),
                 CheckFailure);
    return;
  }
  bank.predict_into(TickIndex{3}, &dists, &mode_row, &modes);
  ASSERT_EQ(mode_row.size(), 2u);
  ASSERT_EQ(modes.size(), 6u);
  for (std::size_t a = 0; a < 2; ++a) {
    EXPECT_EQ(dists[a].probabilities(),
              Distribution::uniform(bank.alphabet(a)).probabilities());
    EXPECT_EQ(mode_row[a], 0u);
    for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(modes[s * 2 + a], 0u);
  }
}

// The bank runs the widest kernel the host supports; record which.
TEST(MarkovKernel, WidestSupportedIsTheWidest) {
  const Kernel widest = markov_kernel::widest_supported();
  EXPECT_TRUE(markov_kernel::supported(widest));
  EXPECT_TRUE(markov_kernel::supported(Kernel::k16));
  for (Kernel kernel : {Kernel::k16, Kernel::k32, Kernel::k64}) {
    if (markov_kernel::supported(kernel)) {
      EXPECT_LE(static_cast<int>(kernel), static_cast<int>(widest));
    }
  }
  RecordProperty("dispatched", kernel_name(widest));
}

}  // namespace
}  // namespace prepare
