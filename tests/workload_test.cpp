#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/check.h"
#include "workload/nasa_trace.h"
#include "workload/patterns.h"

namespace prepare {
namespace {

TEST(ConstantWorkload, IsConstant) {
  ConstantWorkload w(42.0);
  EXPECT_DOUBLE_EQ(w.rate(0.0), 42.0);
  EXPECT_DOUBLE_EQ(w.rate(1e6), 42.0);
}

TEST(ConstantWorkload, RejectsNegative) {
  EXPECT_THROW(ConstantWorkload(-1.0), CheckFailure);
}

TEST(StepWorkload, JumpsAtStepTime) {
  StepWorkload w(10.0, 5.0, 100.0);
  EXPECT_DOUBLE_EQ(w.rate(99.9), 10.0);
  EXPECT_DOUBLE_EQ(w.rate(100.0), 15.0);
}

TEST(StepWorkload, NegativeJumpClampsAtZero) {
  StepWorkload w(10.0, -20.0, 0.0);
  EXPECT_DOUBLE_EQ(w.rate(1.0), 0.0);
}

TEST(RampWorkload, GrowsLinearlyInWindow) {
  RampWorkload w(10.0, 2.0, 100.0, 200.0);
  EXPECT_DOUBLE_EQ(w.rate(50.0), 10.0);
  EXPECT_DOUBLE_EQ(w.rate(100.0), 10.0);
  EXPECT_DOUBLE_EQ(w.rate(150.0), 110.0);
  EXPECT_DOUBLE_EQ(w.rate(201.0), 10.0);  // reverts after the window
}

TEST(RampWorkload, CapLimitsGrowth) {
  RampWorkload w(0.0, 10.0, 0.0, 100.0, 50.0);
  EXPECT_DOUBLE_EQ(w.rate(90.0), 50.0);
}

TEST(RampWorkload, RejectsInvertedWindow) {
  EXPECT_THROW(RampWorkload(1.0, 1.0, 10.0, 5.0), CheckFailure);
}

TEST(SineWorkload, OscillatesAroundBase) {
  SineWorkload w(100.0, 10.0, 40.0);
  EXPECT_NEAR(w.rate(0.0), 100.0, 1e-9);
  EXPECT_NEAR(w.rate(10.0), 110.0, 1e-9);  // quarter period
  EXPECT_NEAR(w.rate(30.0), 90.0, 1e-9);   // three quarters
}

TEST(SineWorkload, NeverNegative) {
  SineWorkload w(5.0, 50.0, 10.0);
  for (double t = 0.0; t < 20.0; t += 0.5) EXPECT_GE(w.rate(t), 0.0);
}

TEST(CompositeWorkload, SumsParts) {
  CompositeWorkload w;
  w.add(std::make_unique<ConstantWorkload>(10.0));
  w.add(std::make_unique<StepWorkload>(0.0, 5.0, 50.0));
  EXPECT_DOUBLE_EQ(w.rate(0.0), 10.0);
  EXPECT_DOUBLE_EQ(w.rate(60.0), 15.0);
}

TEST(CompositeWorkload, EmptyIsZero) {
  CompositeWorkload w;
  EXPECT_DOUBLE_EQ(w.rate(123.0), 0.0);
}

TEST(NasaTrace, DeterministicForSeed) {
  NasaTraceWorkload a(NasaTraceConfig{}, 7);
  NasaTraceWorkload b(NasaTraceConfig{}, 7);
  for (double t = 0.0; t < 1000.0; t += 37.0)
    EXPECT_DOUBLE_EQ(a.rate(t), b.rate(t));
}

TEST(NasaTrace, DifferentSeedsDiffer) {
  NasaTraceWorkload a(NasaTraceConfig{}, 7);
  NasaTraceWorkload b(NasaTraceConfig{}, 8);
  bool any_diff = false;
  for (double t = 0.0; t < 2000.0 && !any_diff; t += 13.0)
    any_diff = a.rate(t) != b.rate(t);
  EXPECT_TRUE(any_diff);
}

TEST(NasaTrace, NonNegativeEverywhere) {
  NasaTraceWorkload w(NasaTraceConfig{}, 3);
  for (double t = 0.0; t < 3000.0; t += 7.0) EXPECT_GE(w.rate(t), 0.0);
}

TEST(NasaTrace, DiurnalShapeClimbsFromMidnight) {
  // The compressed day starts at the overnight minimum and peaks mid-day.
  NasaTraceConfig c;
  c.burst_rate_per_day = 0.0;  // isolate the diurnal component
  c.noise = 0.0;
  NasaTraceWorkload w(c, 1);
  const double day = c.day_seconds / c.compression;
  EXPECT_LT(w.rate(0.0), w.rate(day / 2.0));
  EXPECT_NEAR(w.rate(0.0), w.rate(day), w.rate(0.0) * 0.15);
}

TEST(NasaTrace, BurstsRaiseRate) {
  NasaTraceConfig base;
  base.burst_rate_per_day = 0.0;
  base.noise = 0.0;
  NasaTraceConfig bursty = base;
  bursty.burst_rate_per_day = 500.0;  // many bursts
  NasaTraceWorkload quiet(base, 2);
  NasaTraceWorkload loud(bursty, 2);
  EXPECT_TRUE(quiet.bursts().empty());
  EXPECT_FALSE(loud.bursts().empty());
  double quiet_sum = 0.0, loud_sum = 0.0;
  for (double t = 0.0; t < 1800.0; t += 5.0) {
    quiet_sum += quiet.rate(t);
    loud_sum += loud.rate(t);
  }
  EXPECT_GT(loud_sum, quiet_sum);
}

/// FNV-1a over the bits of rate(t) for a 0.25 s grid across the burst
/// horizon (plus a margin on both sides) and every burst's edges, each
/// edge also one ulp to either side.
std::uint64_t rate_digest(const NasaTraceWorkload& w, std::uint64_t h) {
  const auto fold = [&h](double t, double rate) {
    for (const double v : {t, rate}) {
      unsigned char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      for (const unsigned char b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
      }
    }
  };
  const double end = w.config().horizon_s + 100.0;
  for (double k = -8.0; k * 0.25 <= end; k += 1.0) {
    const double t = k * 0.25;
    fold(t, w.rate(t));
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& burst : w.bursts()) {
    for (const double edge : {burst.start, burst.start + burst.duration}) {
      for (const double t : {std::nextafter(edge, -inf), edge,
                             std::nextafter(edge, inf)})
        fold(t, w.rate(t));
    }
  }
  return h;
}

// Recorded before rate() skipped the bursts that cannot overlap t: the
// window must sum the same bursts in the same order, at their edges too.
TEST(NasaTrace, RateBitsArePinned) {
  std::uint64_t h = 14695981039346656037ull;
  std::size_t bursts = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const NasaTraceWorkload w(NasaTraceConfig{}, seed);
    bursts += w.bursts().size();
    h = rate_digest(w, h);
  }
  // Overlapping bursts: ~4,000 over the horizon, often several at once.
  NasaTraceConfig crowded;
  crowded.burst_rate_per_day = 500.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const NasaTraceWorkload w(crowded, seed);
    bursts += w.bursts().size();
    h = rate_digest(w, h);
  }
  SCOPED_TRACE(testing::Message() << "digest 0x" << std::hex << h);
  EXPECT_EQ(bursts, 29211u);
  EXPECT_EQ(h, 0xa2d1df89e2cdde3aull);
}

TEST(NasaTrace, RejectsBadConfig) {
  NasaTraceConfig c;
  c.base_rate = 0.0;
  EXPECT_THROW(NasaTraceWorkload(c, 1), CheckFailure);
  c = NasaTraceConfig{};
  c.burst_rate_per_day = -1.0;  // arrivals would walk backwards forever
  EXPECT_THROW(NasaTraceWorkload(c, 1), CheckFailure);
  // Arrivals that never pass the horizon: a rate of +inf draws 0.
  c.burst_rate_per_day = std::numeric_limits<double>::infinity();
  EXPECT_THROW(NasaTraceWorkload(c, 1), CheckFailure);
  c = NasaTraceConfig{};
  for (double day : {0.0, -86400.0}) {
    c.day_seconds = day;
    EXPECT_THROW(NasaTraceWorkload(c, 1), CheckFailure) << "day " << day;
  }
  c = NasaTraceConfig{};
  // The compressed day is 0 s, so the burst rate is +inf.
  c.compression = std::numeric_limits<double>::infinity();
  EXPECT_THROW(NasaTraceWorkload(c, 1), CheckFailure);
}

}  // namespace
}  // namespace prepare
