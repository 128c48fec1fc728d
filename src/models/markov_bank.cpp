#include "models/markov_bank.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace prepare {

MarkovBank::MarkovBank(std::size_t order, std::vector<std::size_t> alphabets,
                       double alpha)
    : order_(order), alphabets_(std::move(alphabets)), alpha_(alpha) {
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
  probs_.assign(groups_ * states_ * width_ * kPairs, LanePair{});
  context_.assign(n, 0);
  scratch_v_.assign(states_ * kPairs, LanePair{});
  scratch_next_.assign(states_ * kPairs, LanePair{});
  rebuild_rows();
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
  const std::size_t lane = attribute % kLanes;
  const std::size_t group = attribute / kLanes;
  return probs_[((group * states_ + context) * width_ + next) * kPairs +
                lane / 2][lane % 2];
}

void MarkovBank::rebuild_row(std::size_t attribute, std::size_t context) {
  // (count + alpha) / (row_total + alpha * alphabet), summed over the
  // attribute's own alphabet; padded cells stay 0.
  const std::size_t a = alphabets_[attribute];
  const double* counts = &counts_[count_index(attribute, context, 0)];
  double row_total = 0.0;
  for (std::size_t j = 0; j < a; ++j) row_total += counts[j];
  const double denom = row_total + alpha_ * static_cast<double>(a);
  const std::size_t lane = attribute % kLanes;
  LanePair* row = &probs_[((attribute / kLanes) * states_ + context) *
                          width_ * kPairs];
  for (std::size_t j = 0; j < a; ++j)
    row[j * kPairs + lane / 2][lane % 2] = (counts[j] + alpha_) / denom;
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
  for (std::size_t a = 0; a < n; ++a) {
    const std::vector<std::size_t>& seq = sequences[a];
    PREPARE_CHECK(seq.size() == length) << "attribute " << a;
    std::size_t context = 0;
    for (std::size_t t = 0; t < length; ++t) {
      PREPARE_CHECK(seq[t] < alphabets_[a]) << "attribute " << a;
      if (t >= order_) counts_[count_index(a, context, seq[t])] += 1.0;
      context = (context % shift) * width_ + seq[t];
    }
    context_[a] = context;
  }
  seen_ = std::min(length, order_);
  // Counting first and rebuilding each row once leaves the same rows as
  // a rebuild after every count: a row depends only on its final counts.
  rebuild_rows();
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
  predict_into(steps, &dists, nullptr);
  return dists;
}

void MarkovBank::predict_into(TickIndex steps,
                              std::vector<Distribution>* dists,
                              std::vector<Distribution>* per_step) const {
  PREPARE_CHECK_MSG(ready(), "predict() before enough observations");
  PREPARE_CHECK(steps.value() >= 1);
  PREPARE_CHECK(dists != nullptr);
  const std::size_t n = alphabets_.size();
  const std::size_t k = steps.value();
  // prepare-analyze: allow(hot-alloc): capacity-steady — attributes fixed
  dists->resize(n);
  if (per_step != nullptr) {
    // prepare-analyze: allow(hot-alloc): capacity-steady — horizon fixed
    per_step->resize(k * n);
  }
  // A destination (x2..xn, c) = tail * width_ + c gathers the sources
  // (x1, x2..xn) = x1 * stride + tail, x1 ascending.
  const std::size_t stride = states_ / width_;
  for (std::size_t g = 0; g < groups_; ++g) {
    const std::size_t first = g * kLanes;
    const std::size_t lanes = std::min(kLanes, n - first);
    const LanePair* probs = &probs_[g * states_ * width_ * kPairs];
    LanePair* v = scratch_v_.data();
    LanePair* next = scratch_next_.data();
    std::fill(v, v + states_ * kPairs, LanePair{});
    for (std::size_t l = 0; l < lanes; ++l)
      v[context_[first + l] * kPairs + l / 2][l % 2] = 1.0;
    for (std::size_t s = 0; s < k; ++s) {
      for (std::size_t tail = 0; tail < stride; ++tail) {
        for (std::size_t c = 0; c < width_; ++c) {
          LanePair a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
          for (std::size_t x1 = 0; x1 < width_; ++x1) {
            const std::size_t src = x1 * stride + tail;
            const LanePair* m = v + src * kPairs;
            const LanePair* p = probs + (src * width_ + c) * kPairs;
            a0 += m[0] * p[0];
            a1 += m[1] * p[1];
            a2 += m[2] * p[2];
            a3 += m[3] * p[3];
            a4 += m[4] * p[4];
            a5 += m[5] * p[5];
            a6 += m[6] * p[6];
            a7 += m[7] * p[7];
          }
          LanePair* out = next + (tail * width_ + c) * kPairs;
          out[0] = a0;
          out[1] = a1;
          out[2] = a2;
          out[3] = a3;
          out[4] = a4;
          out[5] = a5;
          out[6] = a6;
          out[7] = a7;
        }
      }
      std::swap(v, next);
#if PREPARE_DCHECK_IS_ON
      // Smoothed rows sum to 1, so each step conserves every lane's mass.
      LanePair mass[kPairs] = {};
      for (std::size_t x = 0; x < states_; ++x)
        for (std::size_t q = 0; q < kPairs; ++q) mass[q] += v[x * kPairs + q];
      for (std::size_t l = 0; l < lanes; ++l) {
        const double lane_mass = mass[l / 2][l % 2];
        PREPARE_DCHECK_NEAR(lane_mass, 1.0, 1e-6)
            << "attribute " << first + l
            << " context-state mass leaked after step " << s + 1;
      }
#endif
      if (per_step != nullptr)
        marginalize(v, first, lanes, per_step->data() + s * n + first);
    }
    marginalize(v, first, lanes, dists->data() + first);
  }
}

void MarkovBank::marginalize(const LanePair* v, std::size_t first,
                             std::size_t lanes, Distribution* out) const {
  for (std::size_t l = 0; l < lanes; ++l)
    out[l].assign_zero(alphabets_[first + l]);
  // Sum over the older symbols (x1..x{n-1}) ascending, per newest symbol.
  const std::size_t prefixes = states_ / width_;
  for (std::size_t c = 0; c < width_; ++c) {
    LanePair sum[kPairs] = {};
    for (std::size_t pre = 0; pre < prefixes; ++pre)
      for (std::size_t q = 0; q < kPairs; ++q)
        sum[q] += v[(pre * width_ + c) * kPairs + q];
    for (std::size_t l = 0; l < lanes; ++l)
      if (c < alphabets_[first + l]) out[l][c] = sum[l / 2][l % 2];
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    out[l].normalize();
    PREPARE_DCHECK(out[l].is_normalized(1e-9))
        << "attribute " << first + l << " prediction not a distribution";
  }
}

MarkovBank::RowStats MarkovBank::row_stats(std::size_t attribute) const {
  PREPARE_CHECK(attribute < alphabets_.size());
  const std::size_t a = alphabets_[attribute];
  RowStats stats;
  stats.rows = rows(attribute);
  for (std::size_t r = 0; r < stats.rows; ++r) {
    const std::size_t context = padded_context(r, a);
    const double* counts = &counts_[count_index(attribute, context, 0)];
    double row_total = 0.0;
    for (std::size_t j = 0; j < a; ++j) row_total += counts[j];
    stats.count_total += row_total;
    if (row_total <= 0.0) continue;
    ++stats.occupied_rows;
    // Smoothed cells are strictly positive, so the log is finite.
    double entropy = 0.0;
    for (std::size_t j = 0; j < a; ++j) {
      const double p = probability(attribute, context, j);
      entropy -= p * std::log(p);
    }
    stats.entropy_sum += entropy;
    stats.entropy_max = std::max(stats.entropy_max, entropy);
  }
  return stats;
}

}  // namespace prepare
