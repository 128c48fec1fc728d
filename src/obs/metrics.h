// Metrics registry: named counters, gauges, and log-bucketed histograms.
//
// PREPARE's evaluation is about observing the predict → diagnose →
// prevent loop (Table 1 overhead, alert lead times, action counts), so
// the reproduction needs a way to measure itself. This registry is that
// substrate:
//
//  * Counter   — monotonically accumulating value (events, actions);
//  * Gauge     — last-written value (allocations, sim time);
//  * Histogram — log-bucketed distribution with p50/p90/p99 queries
//                (stage wall times). Relative quantile error is bounded
//                by the bucket growth factor (default 1.1 ≈ ±10%).
//
// Instruments register by name (dot-separated, see README
// "Observability" for the naming scheme) and keep the returned pointer:
// registration is a map lookup, but recording through a cached pointer
// is a couple of arithmetic ops — cheap enough for per-tick use.
// Pointers stay valid for the registry's lifetime (reset() clears
// values, not registrations).
//
// Thread safety: recording is safe from any number of threads, and the
// /metrics server thread (obs::MetricsHttpServer) reads every instrument
// through snapshot() while the driver records (see DESIGN.md
// "Concurrency model & locking discipline"). Counters and gauges are
// lock-free atomics; histograms and registration serialize on internal
// prepare::Mutexes.
// The whole-map read accessors (counters()/gauges()/histograms()) are
// the one exception: they are for exporters and require quiescence (no
// concurrent registration).
//
// Everything is nullable by convention: instrumented code paths hold
// `Counter*`/`Histogram*` that are nullptr when observability is off,
// and record through the null-safe helpers at the bottom. A run without
// a registry pays only a pointer test per instrumentation point.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace prepare {
namespace obs {

class Counter {
 public:
  /// Lock-free: concurrent inc() from any number of threads is safe.
  /// Accumulation uses a CAS loop on an atomic double; the usual deltas
  /// (+1.0 and other small integers) are exactly representable, so the
  /// total is independent of the interleaving of concurrent callers.
  void inc(double delta = 1.0) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  // Atomic (not mutex-guarded): inc/value/reset are single-word
  // operations with no cross-field invariant to protect.
  std::atomic<double> value_{0.0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  // Atomic (not mutex-guarded): last-writer-wins is the gauge contract,
  // so a plain relaxed store is all the synchronization needed.
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram over non-negative values.
///
/// Bucket 0 holds [0, min_bound) (plus any negative input, clamped);
/// bucket i >= 1 holds [min_bound * growth^(i-1), min_bound * growth^i).
/// Exact count/sum/min/max are tracked alongside, and quantile()
/// results are clamped into [min, max] — so a one-sample histogram
/// answers every quantile exactly.
///
/// record() and the statistics queries are thread-safe (internal mutex;
/// count/sum/min/max and the bucket array move together, so atomics
/// cannot express the invariant). Bucket geometry is immutable after
/// construction and readable without the lock.
class Histogram {
 public:
  explicit Histogram(double min_bound = 1e-9, double growth = 1.1);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double value);

  /// Quantile estimate for q in [0, 1] (0.5 = p50). Returns 0 when
  /// empty. Error is bounded by one bucket width (a factor of growth).
  double quantile(double q) const;

  std::size_t count() const {
    MutexLock lock(&mu_);
    return count_;
  }
  double sum() const {
    MutexLock lock(&mu_);
    return sum_;
  }
  double min() const {
    MutexLock lock(&mu_);
    return count_ == 0 ? 0.0 : min_;
  }
  double max() const {
    MutexLock lock(&mu_);
    return count_ == 0 ? 0.0 : max_;
  }
  double mean() const {
    MutexLock lock(&mu_);
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  double min_bound() const { return min_bound_; }
  double growth() const { return growth_; }

  /// Bucket geometry, exposed for tests and exporters. Immutable after
  /// construction, so lock-free.
  std::size_t bucket_index(double value) const;
  double bucket_lower(std::size_t index) const;
  double bucket_upper(std::size_t index) const;
  std::size_t bucket_count() const { return bounds_.size(); }

  void reset();

 private:
  double quantile_locked(double q) const PREPARE_REQUIRES(mu_);

  // Geometry: fixed at construction, never written again.
  double min_bound_;
  double growth_;
  double inv_log_growth_;
  /// bounds_[i] is the lower bound of bucket i+1 (== upper bound of
  /// bucket i); precomputed so bucket edges are bit-exact.
  std::vector<double> bounds_;

  mutable Mutex mu_;
  std::vector<std::uint64_t> buckets_
      PREPARE_GUARDED_BY(mu_);  ///< sized lazily up to bounds_+1
  std::size_t count_ PREPARE_GUARDED_BY(mu_) = 0;
  double sum_ PREPARE_GUARDED_BY(mu_) = 0.0;
  double min_ PREPARE_GUARDED_BY(mu_) = 0.0;
  double max_ PREPARE_GUARDED_BY(mu_) = 0.0;
};

/// Name → metric registry. Metric names must be unique across kinds
/// (registering "x" as both a counter and a gauge throws CheckFailure).
/// Element addresses are stable: maps are never erased, only reset.
///
/// Registration (counter()/gauge()/histogram()) is thread-safe; the
/// whole-map accessors are export-time reads that require quiescence.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name, double min_bound = 1e-9,
                       double growth = 1.1);

  /// Sorted-by-name views for exporters. Quiescent-only: callers must
  /// ensure no thread registers concurrently (exporters and tests read
  /// after the run). Recording through already registered instruments
  /// is fine — elements are individually thread-safe and their
  /// addresses are stable.
  const std::map<std::string, Counter>& counters() const
      PREPARE_NO_THREAD_SAFETY_ANALYSIS {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const
      PREPARE_NO_THREAD_SAFETY_ANALYSIS {
    return gauges_;
  }
  const std::map<std::string, Histogram>& histograms() const
      PREPARE_NO_THREAD_SAFETY_ANALYSIS {
    return histograms_;
  }

  /// Point-in-time copy of every metric's value, safe to take while
  /// other threads register and record (unlike the whole-map accessors
  /// above). This is what live exporters — the metrics HTTP endpoint —
  /// scrape mid-run.
  struct Snapshot {
    struct HistogramStats {
      std::size_t count = 0;
      double sum = 0.0;
      double min = 0.0;
      double max = 0.0;
      double p50 = 0.0;
      double p90 = 0.0;
      double p99 = 0.0;
    };
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramStats> histograms;
  };
  Snapshot snapshot() const;

  /// Zeroes every metric in place. Registrations (and thus cached
  /// pointers) survive — use between repeated runs sharing a registry.
  void reset();

 private:
  void check_unregistered_locked(const std::string& name,
                                 const char* kind) const
      PREPARE_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Counter> counters_ PREPARE_GUARDED_BY(mu_);
  std::map<std::string, Gauge> gauges_ PREPARE_GUARDED_BY(mu_);
  std::map<std::string, Histogram> histograms_ PREPARE_GUARDED_BY(mu_);
};

// Null-safe recording helpers: instrumented code holds nullptr handles
// when no registry is attached, and these compile down to a test+skip.
inline void inc(Counter* counter, double delta = 1.0) {
  if (counter != nullptr) counter->inc(delta);
}
inline void set(Gauge* gauge, double value) {
  if (gauge != nullptr) gauge->set(value);
}
inline void observe(Histogram* histogram, double value) {
  if (histogram != nullptr) histogram->record(value);
}

// Null-safe registration helpers for optional registries.
inline Counter* counter(MetricsRegistry* registry, const std::string& name) {
  return registry == nullptr ? nullptr : registry->counter(name);
}
inline Gauge* gauge(MetricsRegistry* registry, const std::string& name) {
  return registry == nullptr ? nullptr : registry->gauge(name);
}
inline Histogram* histogram(MetricsRegistry* registry,
                            const std::string& name) {
  return registry == nullptr ? nullptr : registry->histogram(name);
}

}  // namespace obs
}  // namespace prepare
