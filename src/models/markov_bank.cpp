#include "models/markov_bank.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"

namespace prepare {
namespace markov_kernel {
namespace {

// Vectors of doubles at each width; may_alias lets them read and write
// LaneRow's doubles.
typedef double Vec16 __attribute__((vector_size(16), may_alias));
typedef double Vec32 __attribute__((vector_size(32), may_alias));
typedef double Vec64 __attribute__((vector_size(64), may_alias));

/// Destinations c .. c + Chunk - 1 of one tail: each source state's
/// lanes are loaded once per x1 and multiplied into all of them, with
/// Chunk x (128 / sizeof(Vec)) accumulators held in registers. Inlined
/// into each kernel, so it compiles for that kernel's target.
template <typename Vec, std::size_t Chunk>
__attribute__((always_inline)) inline void gather_chunk(
    const LaneRow* v, const LaneRow* probs, std::size_t width,
    std::size_t stride, std::size_t tail, std::size_t c, LaneRow* next) {
  constexpr std::size_t kPerRow = sizeof(LaneRow) / sizeof(Vec);
  Vec acc[Chunk][kPerRow] = {};
  for (std::size_t x1 = 0; x1 < width; ++x1) {
    const std::size_t src = x1 * stride + tail;
    const Vec* m = reinterpret_cast<const Vec*>(v[src].lane);
#pragma GCC unroll 16
    for (std::size_t d = 0; d < Chunk; ++d) {
      const Vec* p =
          reinterpret_cast<const Vec*>(probs[src * width + c + d].lane);
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kPerRow; ++r) acc[d][r] += m[r] * p[r];
    }
  }
#pragma GCC unroll 16
  for (std::size_t d = 0; d < Chunk; ++d) {
    Vec* out = reinterpret_cast<Vec*>(next[tail * width + c + d].lane);
#pragma GCC unroll 16
    for (std::size_t r = 0; r < kPerRow; ++r) out[r] = acc[d][r];
  }
}

/// The step of markov_kernel.h: destinations in chunks of Chunk, then
/// one at a time.
template <typename Vec, std::size_t Chunk>
__attribute__((always_inline)) inline void gather_step(
    const LaneRow* v, const LaneRow* probs, std::size_t width,
    std::size_t stride, LaneRow* next) {
  for (std::size_t tail = 0; tail < stride; ++tail) {
    std::size_t c = 0;
    for (; c + Chunk <= width; c += Chunk)
      gather_chunk<Vec, Chunk>(v, probs, width, stride, tail, c, next);
    for (; c < width; ++c)
      gather_chunk<Vec, 1>(v, probs, width, stride, tail, c, next);
  }
}

/// The marginal of markov_kernel.h: the sums of each symbol go to p and
/// into the totals, then one pass divides them and keeps the argmax. A
/// non-finite sum leaves its lane's total non-finite, so checking the
/// totals and the lowest sums covers every sum. The conditionals are
/// min/max/blend patterns, which AVX-512F compiles without a mask
/// vector.
template <typename Vec>
__attribute__((always_inline)) inline bool sum_and_divide(
    const LaneRow* v, std::size_t width, std::size_t stride,
    std::size_t lanes, LaneRow* p, LaneRow* mode) {
  constexpr std::size_t kPerRow = sizeof(LaneRow) / sizeof(Vec);
  Vec total[kPerRow] = {}, lowest[kPerRow] = {};
  for (std::size_t c = 0; c < width; ++c) {
    Vec sum[kPerRow] = {};
    for (std::size_t pre = 0; pre < stride; ++pre) {
      const Vec* m = reinterpret_cast<const Vec*>(v[pre * width + c].lane);
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kPerRow; ++r) sum[r] += m[r];
    }
    Vec* out = reinterpret_cast<Vec*>(p[c].lane);
#pragma GCC unroll 16
    for (std::size_t r = 0; r < kPerRow; ++r) {
      out[r] = sum[r];
      total[r] += sum[r];
      lowest[r] = sum[r] < lowest[r] ? sum[r] : lowest[r];
    }
  }
  LaneRow totals{}, lows{};
#pragma GCC unroll 16
  for (std::size_t r = 0; r < kPerRow; ++r) {
    reinterpret_cast<Vec*>(totals.lane)[r] = total[r];
    reinterpret_cast<Vec*>(lows.lane)[r] = lowest[r];
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    const double t = totals.lane[l];
    const bool used = l < lanes;
    if (!(lows.lane[l] >= 0.0 && t <= std::numeric_limits<double>::max() &&
          (t > 0.0 || !used)))
      return false;
  }
  // No quotient is negative, so the argmax may start at +0.0 on symbol
  // 0; a strict > keeps the lowest symbol of a tie, as
  // Distribution::mode() does.
  Vec best[kPerRow] = {}, arg[kPerRow] = {};
  for (std::size_t c = 0; c < width; ++c) {
    const Vec symbol = Vec{} + static_cast<double>(c);
    Vec* q = reinterpret_cast<Vec*>(p[c].lane);
#pragma GCC unroll 16
    for (std::size_t r = 0; r < kPerRow; ++r) {
      q[r] /= total[r];
      const Vec prev = best[r];
      best[r] = q[r] > prev ? q[r] : prev;
      arg[r] = q[r] > prev ? symbol : arg[r];
    }
  }
#pragma GCC unroll 16
  for (std::size_t r = 0; r < kPerRow; ++r)
    reinterpret_cast<Vec*>(mode->lane)[r] = arg[r];
  return true;
}

// Chunks fill the registers: 8 accumulators of 16 SSE2/NEON registers,
// 12 of 16 AVX2 ones, 10 of 32 AVX-512 ones; 5 covers the default
// 5-bin alphabet in one pass.
void step16(const LaneRow* v, const LaneRow* probs, std::size_t width,
            std::size_t stride, LaneRow* next) {
  gather_step<Vec16, 1>(v, probs, width, stride, next);
}

bool marginal16(const LaneRow* v, std::size_t width, std::size_t stride,
                std::size_t lanes, LaneRow* p, LaneRow* mode) {
  return sum_and_divide<Vec16>(v, width, stride, lanes, p, mode);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void step32(
    const LaneRow* v, const LaneRow* probs, std::size_t width,
    std::size_t stride, LaneRow* next) {
  gather_step<Vec32, 3>(v, probs, width, stride, next);
}

__attribute__((target("avx2"))) bool marginal32(
    const LaneRow* v, std::size_t width, std::size_t stride,
    std::size_t lanes, LaneRow* p, LaneRow* mode) {
  return sum_and_divide<Vec32>(v, width, stride, lanes, p, mode);
}

__attribute__((target("avx512f"))) void step64(
    const LaneRow* v, const LaneRow* probs, std::size_t width,
    std::size_t stride, LaneRow* next) {
  gather_step<Vec64, 5>(v, probs, width, stride, next);
}

__attribute__((target("avx512f"))) bool marginal64(
    const LaneRow* v, std::size_t width, std::size_t stride,
    std::size_t lanes, LaneRow* p, LaneRow* mode) {
  return sum_and_divide<Vec64>(v, width, stride, lanes, p, mode);
}
#endif

}  // namespace

bool supported(Kernel kernel) {
#if defined(__x86_64__)
  // Also checks that the OS saves the wider registers (XCR0).
  __builtin_cpu_init();
  if (kernel == Kernel::k32) return __builtin_cpu_supports("avx2");
  if (kernel == Kernel::k64) return __builtin_cpu_supports("avx512f");
#endif
  return kernel == Kernel::k16;
}

Kernel widest_supported() {
  for (Kernel kernel : {Kernel::k64, Kernel::k32})
    if (supported(kernel)) return kernel;
  return Kernel::k16;
}

void step(Kernel kernel, const LaneRow* v, const LaneRow* probs,
          std::size_t width, std::size_t stride, LaneRow* next) {
  switch (kernel) {
    case Kernel::k16:
      return step16(v, probs, width, stride, next);
#if defined(__x86_64__)
    case Kernel::k32:
      return step32(v, probs, width, stride, next);
    case Kernel::k64:
      return step64(v, probs, width, stride, next);
#endif
    default:
      PREPARE_CHECK_MSG(false, "kernel not built for this target");
  }
}

bool marginal(Kernel kernel, const LaneRow* v, std::size_t width,
              std::size_t stride, std::size_t lanes, LaneRow* p,
              LaneRow* mode) {
  switch (kernel) {
    case Kernel::k16:
      return marginal16(v, width, stride, lanes, p, mode);
#if defined(__x86_64__)
    case Kernel::k32:
      return marginal32(v, width, stride, lanes, p, mode);
    case Kernel::k64:
      return marginal64(v, width, stride, lanes, p, mode);
#endif
    default:
      PREPARE_CHECK_MSG(false, "kernel not built for this target");
  }
  return false;
}

}  // namespace markov_kernel

MarkovBank::MarkovBank(std::size_t order, std::vector<std::size_t> alphabets,
                       double alpha,
                       const std::vector<std::vector<std::size_t>>& sequences)
    : order_(order),
      alphabets_(std::move(alphabets)),
      alpha_(alpha),
      kernel_(markov_kernel::widest_supported()) {
  PREPARE_CHECK(order >= 1);
  PREPARE_CHECK_MSG(!alphabets_.empty(), "bank needs at least one attribute");
  PREPARE_CHECK(alpha > 0.0);
  for (std::size_t a : alphabets_) {
    PREPARE_CHECK(a >= 2) << "alphabet " << a;
    width_ = std::max(width_, a);
  }
  // A lane group's table holds states_ x width_ cells per lane.
  for (std::size_t i = 0; i < order_; ++i) {
    PREPARE_CHECK_MSG(states_ <= kMaxCellsPerLane / width_ / width_,
                      "alphabet^order too large");
    states_ *= width_;
  }
  const std::size_t n = alphabets_.size();
  groups_ = (n + kLanes - 1) / kLanes;
  counts_.assign(n * states_ * width_, 0.0);
  row_totals_.assign(n * states_, 0.0);
  probs_.assign(groups_ * states_ * width_, LaneRow{});
  context_.assign(n, 0);
  scratch_v_.assign(states_, LaneRow{});
  scratch_next_.assign(states_, LaneRow{});
  scratch_p_.assign(width_, LaneRow{});
  // Every row the kernels touch starts on a cache line.
  for (const auto* rows :
       {&probs_, &scratch_v_, &scratch_next_, &scratch_p_}) {
    const auto address = reinterpret_cast<std::uintptr_t>(rows->data());
    PREPARE_CHECK(address % alignof(LaneRow) == 0) << "row at " << address;
  }
  // Each row is built once: from the training counts, or uniform.
  if (sequences.empty())
    rebuild_rows();
  else
    train(sequences);
}

std::size_t MarkovBank::alphabet(std::size_t attribute) const {
  PREPARE_CHECK(attribute < alphabets_.size());
  return alphabets_[attribute];
}

std::size_t MarkovBank::rows(std::size_t attribute) const {
  std::size_t rows = 1;
  for (std::size_t i = 0; i < order_; ++i) rows *= alphabets_[attribute];
  return rows;
}

std::size_t MarkovBank::padded_context(std::size_t row,
                                       std::size_t alphabet) const {
  // Same digits, read in radix `alphabet` and rewritten in radix width_.
  std::size_t context = 0, scale = 1;
  for (std::size_t i = 0; i < order_; ++i) {
    context += (row % alphabet) * scale;
    row /= alphabet;
    scale *= width_;
  }
  return context;
}

double MarkovBank::probability(std::size_t attribute, std::size_t context,
                               std::size_t next) const {
  return probs_[((attribute / kLanes) * states_ + context) * width_ + next]
      .lane[attribute % kLanes];
}

double MarkovBank::row_total(std::size_t attribute,
                             std::size_t context) const {
  const double total = row_totals_[attribute * states_ + context];
#if PREPARE_DCHECK_IS_ON
  const double* counts = &counts_[count_index(attribute, context, 0)];
  double summed = 0.0;
  for (std::size_t j = 0; j < alphabets_[attribute]; ++j) summed += counts[j];
  PREPARE_DCHECK(total == summed)
      << "attribute " << attribute << " context " << context << " total "
      << total << " != summed counts " << summed;
#endif
  return total;
}

void MarkovBank::rebuild_row(std::size_t attribute, std::size_t context) {
  // (count + alpha) / (row_total + alpha * alphabet), summed over the
  // attribute's own alphabet; padded cells stay 0.
  const std::size_t a = alphabets_[attribute];
  const double* counts = &counts_[count_index(attribute, context, 0)];
  const double denom =
      row_total(attribute, context) + alpha_ * static_cast<double>(a);
  const std::size_t lane = attribute % kLanes;
  LaneRow* row = &probs_[((attribute / kLanes) * states_ + context) * width_];
  for (std::size_t j = 0; j < a; ++j)
    row[j].lane[lane] = (counts[j] + alpha_) / denom;
}

void MarkovBank::rebuild_rows() {
  for (std::size_t a = 0; a < alphabets_.size(); ++a)
    for (std::size_t r = 0; r < rows(a); ++r)
      rebuild_row(a, padded_context(r, alphabets_[a]));
}

void MarkovBank::train(const std::vector<std::vector<std::size_t>>& sequences) {
  const std::size_t n = alphabets_.size();
  PREPARE_CHECK(sequences.size() == n);
  const std::size_t length = sequences.front().size();
  const std::size_t shift = states_ / width_;
  std::fill(counts_.begin(), counts_.end(), 0.0);
  std::fill(row_totals_.begin(), row_totals_.end(), 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    const std::vector<std::size_t>& seq = sequences[a];
    PREPARE_CHECK(seq.size() == length) << "attribute " << a;
    std::size_t context = 0;
    for (std::size_t t = 0; t < length; ++t) {
      PREPARE_CHECK(seq[t] < alphabets_[a]) << "attribute " << a;
      if (t >= order_) {
        counts_[count_index(a, context, seq[t])] += 1.0;
        row_totals_[a * states_ + context] += 1.0;
      }
      // Drop the oldest symbol, the most significant digit, by
      // subtraction: it is still in the sequence, and `% shift` would
      // put an integer division on the loop's dependency chain.
      const std::size_t oldest = t >= order_ ? seq[t - order_] : 0;
      context = (context - oldest * shift) * width_ + seq[t];
    }
    context_[a] = context;
  }
  seen_ = std::min(length, order_);
  // Counting first and rebuilding each row once leaves the same rows as
  // a rebuild after every count: a row depends only on its final counts.
  rebuild_rows();
  row_entropy_.clear();
}

void MarkovBank::observe(const std::vector<std::size_t>& row, bool learn) {
  const std::size_t n = alphabets_.size();
  PREPARE_CHECK(row.size() == n);
  for (std::size_t a = 0; a < n; ++a)
    PREPARE_CHECK(row[a] < alphabets_[a]) << "attribute " << a;
  const std::size_t shift = states_ / width_;
  for (std::size_t a = 0; a < n; ++a) {
    if (seen_ == order_ && learn) {
      counts_[count_index(a, context_[a], row[a])] += 1.0;
      row_totals_[a * states_ + context_[a]] += 1.0;
      rebuild_row(a, context_[a]);
    }
    // Drop the oldest symbol (most significant digit), append the new.
    context_[a] = (context_[a] % shift) * width_ + row[a];
  }
  if (seen_ < order_) ++seen_;
}

Probability MarkovBank::transition(std::size_t attribute,
                                   const std::vector<std::size_t>& context,
                                   BinIndex next) const {
  PREPARE_CHECK(attribute < alphabets_.size());
  PREPARE_CHECK(context.size() == order_);
  const std::size_t a = alphabets_[attribute];
  PREPARE_CHECK(next.value() < a);
  std::size_t index = 0;
  for (std::size_t s : context) {
    PREPARE_CHECK(s < a);
    index = index * width_ + s;
  }
  return Probability{probability(attribute, index, next.value())};
}

std::vector<Distribution> MarkovBank::predict(TickIndex steps) const {
  std::vector<Distribution> dists;
  std::vector<std::size_t> mode_row;
  predict_into(steps, &dists, &mode_row, nullptr);
  return dists;
}

void MarkovBank::predict_into(TickIndex steps,
                              std::vector<Distribution>* dists,
                              std::vector<std::size_t>* mode_row,
                              std::vector<std::size_t>* modes) const {
  PREPARE_CHECK_MSG(ready(), "predict() before enough observations");
  PREPARE_CHECK(steps.value() >= 1);
  PREPARE_CHECK(dists != nullptr && mode_row != nullptr);
  const std::size_t n = alphabets_.size();
  const std::size_t k = steps.value();
  // prepare-analyze: allow(hot-alloc): capacity-steady — attributes fixed
  dists->resize(n);
  // prepare-analyze: allow(hot-alloc): capacity-steady — attributes fixed
  mode_row->resize(n);
  if (modes != nullptr) {
    // prepare-analyze: allow(hot-alloc): capacity-steady — horizon fixed
    modes->resize(k * n);
  }
  const std::size_t stride = states_ / width_;
  for (std::size_t g = 0; g < groups_; ++g) {
    const std::size_t first = g * kLanes;
    const std::size_t lanes = std::min(kLanes, n - first);
    const LaneRow* probs = &probs_[g * states_ * width_];
    LaneRow* v = scratch_v_.data();
    LaneRow* next = scratch_next_.data();
    std::fill(v, v + states_, LaneRow{});
    for (std::size_t l = 0; l < lanes; ++l)
      v[context_[first + l]].lane[l] = 1.0;
    for (std::size_t s = 0; s < k; ++s) {
      markov_kernel::step(kernel_, v, probs, width_, stride, next);
      std::swap(v, next);
#if PREPARE_DCHECK_IS_ON
      // Smoothed rows sum to 1, so each step conserves every lane's mass.
      double mass[kLanes] = {};
      for (std::size_t x = 0; x < states_; ++x)
        for (std::size_t l = 0; l < kLanes; ++l) mass[l] += v[x].lane[l];
      for (std::size_t l = 0; l < lanes; ++l) {
        PREPARE_DCHECK_NEAR(mass[l], 1.0, 1e-6)
            << "attribute " << first + l
            << " context-state mass leaked after step " << s + 1;
      }
#endif
      // Only the final step fills distributions and the mode row; the
      // earlier ones keep the modes alone, and only when asked for.
      if (s + 1 == k)
        marginalize(v, first, lanes, /*fill=*/true, dists->data() + first,
                    mode_row->data() + first);
      else if (modes != nullptr)
        marginalize(v, first, lanes, /*fill=*/false, dists->data() + first,
                    modes->data() + s * n + first);
    }
  }
  if (modes != nullptr)
    std::copy(mode_row->begin(), mode_row->end(),
              modes->begin() + static_cast<std::ptrdiff_t>((k - 1) * n));
}

void MarkovBank::marginalize(const LaneRow* v, std::size_t first,
                             std::size_t lanes, bool fill, Distribution* out,
                             std::size_t* modes) const {
  const LaneRow* p = scratch_p_.data();
  LaneRow mode{};
  // Where the kernel declines (a negative, non-finite or all-zero
  // marginal), p holds the sums, and Distribution::normalize() throws on
  // the first two and turns the third uniform. `out` is then the storage
  // even without `fill`.
  const bool ok = markov_kernel::marginal(kernel_, v, width_, states_ / width_,
                                          lanes, scratch_p_.data(), &mode);
  for (std::size_t l = 0; l < lanes; ++l) {
    if (fill || !ok) {
      const std::size_t a = alphabets_[first + l];
      out[l].assign_zero(a);
      for (std::size_t c = 0; c < a; ++c) out[l][c] = p[c].lane[l];
      if (!ok) out[l].normalize();
      PREPARE_DCHECK(out[l].is_normalized(1e-9))
          << "attribute " << first + l << " prediction not a distribution";
    }
    modes[l] = ok ? static_cast<std::size_t>(mode.lane[l]) : out[l].mode();
    PREPARE_DCHECK(!fill || modes[l] == out[l].mode())
        << "attribute " << first + l << " kernel mode " << modes[l]
        << " is not the distribution's mode " << out[l].mode();
  }
}

MarkovBank::RowStats MarkovBank::row_stats(std::size_t attribute) const {
  PREPARE_CHECK(attribute < alphabets_.size());
  const std::size_t a = alphabets_[attribute];
  if (row_entropy_.empty())
    row_entropy_.resize(alphabets_.size() * states_);
  RowStats stats;
  stats.rows = rows(attribute);
  // Every radix-width_ context, without padded_context()'s divisions. A
  // padded one (a digit >= a) never gets a count, so it is skipped as
  // empty, and the real rows come in attribute-radix order.
  for (std::size_t context = 0; context < states_; ++context) {
    const double total = row_total(attribute, context);
    stats.count_total += total;
    if (total <= 0.0) continue;
    ++stats.occupied_rows;
    RowEntropy& cached = row_entropy_[attribute * states_ + context];
    if (cached.total != total) {
      // Smoothed cells are strictly positive, so the log is finite.
      double entropy = 0.0;
      for (std::size_t j = 0; j < a; ++j) {
        const double p = probability(attribute, context, j);
        entropy -= p * std::log(p);
      }
      cached = {total, entropy};
    }
    stats.entropy_sum += cached.entropy;
    stats.entropy_max = std::max(stats.entropy_max, cached.entropy);
  }
  return stats;
}

}  // namespace prepare
