// Deterministic random number generation.
//
// Every stochastic component in the simulator draws from an Rng seeded by
// the experiment harness, so a run is exactly reproducible from its seed.
// The contract is std::mt19937_64's sequence and libstdc++'s arithmetic
// for std::uniform_real_distribution<double> and a fresh
// std::normal_distribution<double>: Rng reproduces both bit for bit,
// without the branches on random bits that libstdc++ takes (DESIGN.md
// §11, "Exact draws"). tests/rng_test.cpp checks it against the std
// types.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

#include "common/check.h"

namespace prepare {

/// std::mt19937_64's sequence for every seed: the standard seeding, 312
/// words per refill, tempered on read. The twist selects its matrix term
/// with a mask instead of a branch. Meets UniformRandomBitGenerator.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateSize) refill();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kStateSize = 312;

  /// Twists all 312 words of state and rewinds the read position.
  void refill();

  std::uint64_t state_[kStateSize] = {};
  std::size_t pos_ = kStateSize;
};

/// libstdc++'s std::generate_canonical<double, 53> of one 64-bit word:
/// `u` rounded to nearest, times 2^-64, and the largest double below 1.0
/// when that reaches 1.0. Both halves convert exactly, so the add is the
/// only rounding and gives double(u) without its branch on the top bit.
inline double canonical_double(std::uint64_t u) {
  const double rounded =
      static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<std::uint32_t>(u));
  return std::min(rounded * 0x1p-64, 0x1.fffffffffffffp-1);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi), as std::uniform_real_distribution.
  double uniform(double lo = 0.0, double hi = 1.0) {
    PREPARE_DCHECK(lo <= hi);
    return canonical_double(engine_()) * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation: libstdc++'s
  /// polar method for a fresh std::normal_distribution, which returns
  /// the `y` half of the pair and throws the `x` half away.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    PREPARE_DCHECK(stddev > 0.0);
    double y = 0.0;
    double r2 = 0.0;
    do {
      const double x = 2.0 * canonical_double(engine_()) - 1.0;
      y = 2.0 * canonical_double(engine_()) - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
  }

  /// Exponential with the given rate (lambda).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace prepare
