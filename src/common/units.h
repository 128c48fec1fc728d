// Zero-cost strong typedefs for the quantities the pipeline passes
// between layers.
//
// The predict→diagnose→prevent core moves around a handful of scalar
// roles — VM identities, look-ahead tick counts, discretized bin
// indices, probabilities, TAN log-odds (the paper's L_i), and sim-time
// durations — all of which erase to `std::size_t` or `double` at the
// ABI level. A swapped pair of such parameters compiles silently and
// produces plausible-looking wrong numbers; these wrappers turn that
// class of bug into a compile error. `tools/prepare_analyze.py` rule
// `strong-type` enforces their use on public model/sim/controller
// boundaries.
//
// Two families:
//
//  * Ordinal types (VmId, TickIndex, BinIndex) — explicit construction,
//    NO implicit conversion in either direction: an index must never
//    silently flow into arithmetic meant for a different index space.
//    Read the raw value with .value() at the array-subscript boundary.
//  * Quantity types (Probability, LogOdds, Seconds) — explicit
//    construction, but implicit READ-OUT to double: once a value is
//    checked on the way in, arithmetic on the way out is safe and
//    should stay frictionless. Cross-unit mixups are still blocked
//    because an implicit user conversion cannot chain into another
//    explicit constructor.
//
// Probability DCHECKs its [0, 1] range (with a small fp-rounding
// slack) on construction; Seconds DCHECKs finiteness. Both checks
// compile out in release builds (see common/check.h).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace prepare {

namespace internal {

/// CRTP base for the ordinal family. `Rep` is the storage type; the
/// derived tag type is what makes two ordinals incompatible.
template <typename Tag, typename Rep>
class StrongOrdinal {
 public:
  using rep = Rep;

  constexpr StrongOrdinal() = default;
  explicit constexpr StrongOrdinal(Rep value) : value_(value) {}

  constexpr Rep value() const { return value_; }

  friend constexpr bool operator==(Tag a, Tag b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(Tag a, Tag b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(Tag a, Tag b) { return a.value_ < b.value_; }
  friend constexpr bool operator<=(Tag a, Tag b) {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>(Tag a, Tag b) { return a.value_ > b.value_; }
  friend constexpr bool operator>=(Tag a, Tag b) {
    return a.value_ >= b.value_;
  }

 private:
  Rep value_{};
};

}  // namespace internal

/// Identity of a VM within its cluster: assigned by Cluster::add_vm in
/// creation order and stable for the VM's lifetime. Vm::id() of a VM
/// never owned by a cluster is VmId{0} == kUnassignedVmId.
class VmId : public internal::StrongOrdinal<VmId, std::uint32_t> {
 public:
  using StrongOrdinal::StrongOrdinal;
};

/// A count of sampling intervals (the paper's look-ahead "k"): the
/// prediction horizon of MarkovBank::predict / AnomalyPredictor::predict,
/// i.e. lookahead_s / sampling_interval_s rounded.
class TickIndex : public internal::StrongOrdinal<TickIndex, std::size_t> {
 public:
  using StrongOrdinal::StrongOrdinal;
};

/// Index of a discretized attribute bin (one of the paper's "single
/// states", Fig. 2): what Discretizer::discretize produces and the
/// Markov predictors and Bayesian classifiers consume.
class BinIndex : public internal::StrongOrdinal<BinIndex, std::size_t> {
 public:
  using StrongOrdinal::StrongOrdinal;
};

/// A probability in [0, 1] — checked on construction (DCHECK, with a
/// small slack for fp rounding in count ratios), frictionless on
/// read-out.
class Probability {
 public:
  constexpr Probability() = default;
  explicit Probability(double value) : value_(value) {
    PREPARE_DCHECK(value >= -1e-12 && value <= 1.0 + 1e-9)
        << "probability " << value << " outside [0, 1]";
  }

  constexpr double value() const { return value_; }
  constexpr operator double() const { return value_; }  // NOLINT

 private:
  double value_ = 0.0;
};

/// A log-odds value: the classifier score of Eq. (1) and the
/// per-attribute impact strength L_i of Eq. (2). Unbounded; positive
/// means "abnormal more likely than normal".
class LogOdds {
 public:
  constexpr LogOdds() = default;
  explicit constexpr LogOdds(double value) : value_(value) {}

  constexpr double value() const { return value_; }
  constexpr operator double() const { return value_; }  // NOLINT

  /// Log-odds accumulate additively (Eq. 1 sums the per-attribute L_i
  /// onto the prior term).
  LogOdds& operator+=(double term) {
    value_ += term;
    return *this;
  }

 private:
  double value_ = 0.0;
};

/// A duration in simulated seconds (sampling intervals, actuation
/// latencies, clock steps) — NOT a wall-clock reading; wall time never
/// enters the pipeline outside obs/stage_profiler.
class Seconds {
 public:
  constexpr Seconds() = default;
  explicit Seconds(double value) : value_(value) {
    PREPARE_DCHECK(std::isfinite(value)) << "non-finite duration";
  }

  constexpr double value() const { return value_; }
  constexpr operator double() const { return value_; }  // NOLINT

 private:
  double value_ = 0.0;
};

/// Vm::id() of a VM that no cluster has adopted yet.
inline constexpr VmId kUnassignedVmId{};

}  // namespace prepare
