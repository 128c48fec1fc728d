#include "workload/nasa_trace.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "common/rng.h"

namespace prepare {

NasaTraceWorkload::NasaTraceWorkload(Config config, std::uint64_t seed)
    : config_(config) {
  PREPARE_CHECK(config_.base_rate > 0.0);
  PREPARE_CHECK(config_.compression > 0.0);
  PREPARE_CHECK(config_.horizon_s > 0.0);
  PREPARE_CHECK(config_.day_seconds > 0.0);
  PREPARE_CHECK(config_.burst_rate_per_day >= 0.0 &&
                std::isfinite(config_.burst_rate_per_day));
  // Precompute burst arrivals as a Poisson process over compressed time;
  // a zero rate has none (an exponential draw needs a positive rate).
  if (config_.burst_rate_per_day == 0.0) return;
  Rng rng(seed);
  const double compressed_day = config_.day_seconds / config_.compression;
  const double burst_rate_per_s = config_.burst_rate_per_day / compressed_day;
  // A rate of +inf draws 0 forever, and one that underflows to 0 breaks
  // the draw's precondition.
  PREPARE_CHECK(std::isfinite(burst_rate_per_s) && burst_rate_per_s > 0.0)
      << "burst rate " << burst_rate_per_s << "/s";
  double t = 0.0;
  while (true) {
    t += rng.exponential(burst_rate_per_s);
    if (t > config_.horizon_s) break;
    const double magnitude =
        config_.burst_magnitude * (0.5 + rng.uniform(0.0, 1.0));
    const double duration =
        config_.burst_duration_s * (0.5 + rng.uniform(0.0, 1.0));
    bursts_.push_back({t, duration, magnitude});
    const double end = t + duration;
    reach_.push_back(reach_.empty() ? end : std::max(reach_.back(), end));
  }
}

double NasaTraceWorkload::rate(double t) const {
  const double compressed_day = config_.day_seconds / config_.compression;
  const double day_phase = 2.0 * std::numbers::pi * t / compressed_day;
  // The NASA trace peaks mid-afternoon and bottoms out pre-dawn; starting
  // at 00:00 means the run begins near the minimum and climbs.
  double shape = 1.0 - config_.diurnal_amplitude * std::cos(day_phase);
  shape *= 1.0 + config_.weekly_amplitude *
                     std::sin(day_phase / 7.0 + 0.6);
  // Bursts (flash crowds): raised-cosine pulses. Every burst before
  // `first` ended before t, and bursts start in order, so the walk stops
  // at the first one that starts after t. The active ones are summed in
  // index order, which keeps rate()'s bits.
  const auto first = static_cast<std::size_t>(
      std::lower_bound(reach_.begin(), reach_.end(), t) - reach_.begin());
  for (std::size_t i = first; i < bursts_.size(); ++i) {
    const Burst& burst = bursts_[i];
    if (burst.start > t) break;
    if (t >= burst.start && t <= burst.start + burst.duration) {
      const double phase = (t - burst.start) / burst.duration;
      shape += burst.magnitude *
               0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * phase));
    }
  }
  // Deterministic high-frequency jitter in place of per-request noise.
  shape *= 1.0 + config_.noise * std::sin(t * 1.7) * std::cos(t * 0.41);
  return std::max(0.0, config_.base_rate * shape);
}

}  // namespace prepare
