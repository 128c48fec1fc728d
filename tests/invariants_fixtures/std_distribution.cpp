// Fixture for tests/check_invariants_test.py: a draw that bypasses
// prepare::Rng, which rule R1 (no-raw-rand) must reject.
#include <cstdint>
#include <random>

#include "common/rng.h"

double draw(std::uint64_t seed) {
  prepare::Rng rng(seed);
  return std::normal_distribution<double>(0.0, 1.0)(rng.engine());
}
