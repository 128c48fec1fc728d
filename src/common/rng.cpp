#include "common/rng.h"

namespace prepare {

namespace {

constexpr std::size_t kShift = 156;  // mt19937_64's m
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;

/// One twist step: the upper bit of `word`, the lower 31 of `next`, and
/// the matrix term picked by their low bit through a mask.
inline std::uint64_t twist(std::uint64_t word, std::uint64_t next,
                           std::uint64_t shifted) {
  const std::uint64_t y = (word & kUpperMask) | (next & ~kUpperMask);
  return shifted ^ (y >> 1) ^ (-(y & 1) & kMatrix);
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  for (; k < kStateSize - 1; ++k)
    state_[k] =
        twist(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  state_[kStateSize - 1] =
      twist(state_[kStateSize - 1], state_[0], state_[kShift - 1]);
  pos_ = 0;
}

}  // namespace prepare
