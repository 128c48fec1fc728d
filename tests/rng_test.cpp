#include "common/rng.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "common/check.h"

namespace prepare {
namespace {

// The std types are the reference: Rng must give libstdc++'s bits for
// std::mt19937_64, std::uniform_real_distribution<double> and a fresh
// std::normal_distribution<double>.

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Rng, EngineMatchesMt19937_64) {
  constexpr std::uint64_t kSeeds[] = {
      0, 1, 42, 5489, std::numeric_limits<std::uint64_t>::max()};
  constexpr int kWords = 10'000'000;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    int mismatches = 0;
    for (int i = 0; i < kWords; ++i) mismatches += engine() != reference();
    EXPECT_EQ(mismatches, 0);
  }
}

TEST(Rng, EngineTenThousandthWordIsTheStandardOne) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

/// A generator that always yields one word, so
/// std::generate_canonical<double, 53> converts exactly that word.
struct OneWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
  result_type word;
};

TEST(Rng, CanonicalMatchesGenerateCanonical) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kWords[] = {
      0,
      1,
      (std::uint64_t{1} << 53) - 1,
      (std::uint64_t{1} << 53) + 1,  // a tie, rounds to even
      std::uint64_t{1} << 63,
      kTop - 1024,  // 2^64 - 1025: rounds down to 1 - 2^-53
      kTop - 1023,  // 2^64 - 1024: a tie that rounds up to 1.0, clamped
      kTop,
  };
  for (const std::uint64_t word : kWords) {
    SCOPED_TRACE(word);
    OneWord stub{word};
    const double reference = std::generate_canonical<double, 53>(stub);
    EXPECT_TRUE(same_bits(canonical_double(word), reference))
        << canonical_double(word) << " vs " << reference;
  }
  EXPECT_EQ(canonical_double(0), 0.0);
  EXPECT_EQ(canonical_double(kTop - 1024), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical_double(kTop - 1023), std::nextafter(1.0, 0.0));
  EXPECT_EQ(canonical_double(kTop), std::nextafter(1.0, 0.0));
}

TEST(Rng, DrawsMatchStdDistributionsInLockstep) {
  // Each step draws one kind of value from Rng and the same from fresh
  // std distributions over a std::mt19937_64 with the same seed, so the
  // two streams stay aligned only if every draw takes the same words.
  constexpr int kDraws = 10'000'000;
  Rng rng(20'240'601);
  std::mt19937_64 reference(20'240'601);
  std::mt19937_64 chooser(7);
  int mismatches = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t pick = chooser();
    double got = 0.0;
    double want = 0.0;
    switch (pick % 8) {
      case 0:
      case 1:
      case 2: {
        // sigma log-uniform over [1e-3, 1e4), the monitor's floor and up.
        const double sigma =
            std::pow(10.0, -3.0 + 7.0 * static_cast<double>(pick >> 11) *
                                      0x1p-53);
        const double mean = static_cast<double>(pick % 2001) - 1000.0;
        got = rng.gaussian(mean, sigma);
        want = std::normal_distribution<double>(mean, sigma)(reference);
        break;
      }
      case 3:
        got = rng.gaussian();
        want = std::normal_distribution<double>()(reference);
        break;
      case 4:
        got = rng.uniform(1.0, 14.0);
        want = std::uniform_real_distribution<double>(1.0, 14.0)(reference);
        break;
      case 5: {
        const double lo = -static_cast<double>(pick % 1000) * 0.37;
        const double hi = lo + static_cast<double>(pick >> 40) * 1e-3;
        got = rng.uniform(lo, hi);
        want = std::uniform_real_distribution<double>(lo, hi)(reference);
        break;
      }
      case 6: {
        const auto hi = static_cast<std::int64_t>(pick >> 44);
        got = static_cast<double>(rng.uniform_int(-3, hi));
        want = static_cast<double>(
            std::uniform_int_distribution<std::int64_t>(-3, hi)(reference));
        break;
      }
      default: {
        const double rate = 0.01 + static_cast<double>(pick >> 54);
        got = rng.exponential(rate);
        want = std::exponential_distribution<double>(rate)(reference);
        break;
      }
    }
    mismatches += !same_bits(got, want);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(rng.engine()(), reference());
}

TEST(Rng, FirstDrawsArePinned) {
  // Recorded from the std::normal_distribution and
  // std::uniform_real_distribution path. They catch what a lockstep
  // check built with the same flags cannot: a compiler that contracts
  // x * x + y * y, or the final scaling, into an FMA.
  constexpr std::uint64_t kGaussian[] = {
      0x3fb50dadf7876861ULL, 0xbfdab061bbfc3aedULL, 0xbfc3717db86af137ULL,
      0x3fe272bc320fb22aULL, 0x3fd9da232e8cd5ceULL, 0x3ffc4a8291907ba1ULL,
      0x3fe54f986f2bb720ULL, 0xbfaefc98c6c464a3ULL,
  };
  constexpr std::uint64_t kUniform[] = {
      0x40259d304711e872ULL, 0x402aae8c7e94695cULL, 0x40043609ae752ad2ULL,
      0x40293092f87e23f3ULL, 0x4006b136cf2cc432ULL, 0x3ffb7599baa19e40ULL,
      0x4027a545e09a537cULL, 0x40296b2101a488dfULL,
  };
  Rng gaussian(1001);
  for (const std::uint64_t bits : kGaussian)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(gaussian.gaussian(0.0, 1.0)), bits);
  Rng uniform(7);
  for (const std::uint64_t bits : kUniform)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(uniform.uniform(1.0, 14.0)), bits);
}

#if PREPARE_DCHECK_IS_ON
// The preconditions the std distributions assert under
// _GLIBCXX_ASSERTIONS.
TEST(Rng, PreconditionsAreDchecked) {
  Rng rng(1);
  EXPECT_THROW(rng.gaussian(0.0, 0.0), CheckFailure);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), CheckFailure);
  EXPECT_THROW(rng.uniform(2.0, 1.0), CheckFailure);
}
#endif

}  // namespace
}  // namespace prepare
