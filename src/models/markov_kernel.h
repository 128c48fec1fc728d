// The look-ahead step and the marginal readout of MarkovBank at each
// vector width the CPU may offer, and the CPU query that picks one
// (DESIGN.md §11). Internal to the bank: it lives in its own header so
// tests can run every kernel the host supports against the 16-byte
// baseline.
#pragma once

#include <cstddef>

namespace prepare {
namespace markov_kernel {

/// Attributes per lane group.
inline constexpr std::size_t kLanes = 16;

/// The 16 lane masses of one state, or the 16 lane probabilities of one
/// (state, next) transition row: 128 bytes that start on a cache line.
struct alignas(64) LaneRow {
  double lane[kLanes];
};

/// A step instantiation, named by its bytes per vector register.
enum class Kernel {
  k16 = 16,  ///< SSE2 on baseline x86-64, NEON on aarch64
  k32 = 32,  ///< AVX2, x86-64 only
  k64 = 64,  ///< AVX-512F, x86-64 only
};

/// Whether this CPU runs `kernel`, with the OS saving its registers.
bool supported(Kernel kernel);
/// The widest supported kernel.
Kernel widest_supported();

/// One look-ahead step of one lane group with `kernel`, which must be
/// supported(). `v` and `next` hold one row per state (stride * width of
/// them), `probs` one per (state, next symbol), [state][symbol]. A
/// destination (x2..xn, c) = tail * width + c gathers its sources
/// (x1, x2..xn) = x1 * stride + tail, so per lane
///   next[dest] = ((+0.0 + v[src_0] * P_0) + v[src_1] * P_1) + ...
/// over x1 ascending, with P_x1 = probs[src_x1 * width + c]. Every
/// kernel evaluates exactly that expression, so all give the same bits.
void step(Kernel kernel, const LaneRow* v, const LaneRow* probs,
          std::size_t width, std::size_t stride, LaneRow* next);

/// The marginal of one lane group's state vector `v` onto the newest
/// symbol, with `kernel`, which must be supported(). Per lane, each
/// symbol c sums its states (x1..x{n-1}, c) = pre * width + c over the
/// prefix ascending, and the total sums those in ascending c:
///   sum_c = ((+0.0 + v[c]) + v[width + c]) + ...
///   total = ((+0.0 + sum_0) + sum_1) + ...
///   p[c]  = sum_c / total
/// `mode` gets the lowest c with the largest p[c], as a double. Returns
/// false when some sum is negative, some total is not finite (as any
/// non-finite sum leaves it), or a lane below `lanes` has a total of
/// zero; p then holds the undivided sums sum_c, and mode is unspecified,
/// as it is for the lanes from `lanes` on. Every kernel evaluates
/// exactly these expressions, so all give the same bits.
bool marginal(Kernel kernel, const LaneRow* v, std::size_t width,
              std::size_t stride, std::size_t lanes, LaneRow* p,
              LaneRow* mode);

}  // namespace markov_kernel
}  // namespace prepare
