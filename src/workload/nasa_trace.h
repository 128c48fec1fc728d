// Synthetic stand-in for the NASA web-server trace (July 1995, IRCache).
//
// The paper replays the request intensity of that trace against RUBiS to
// get "dynamic workloads with realistic time variations". The archive is
// not redistributable here, so we model the well-documented shape of the
// trace instead: a strong diurnal cycle, a weekly modulation, short
// self-similar bursts, and multiplicative noise. The generator is
// deterministic given its seed; bursts are precomputed so rate(t) is a
// pure function of t.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/workload.h"

namespace prepare {

struct NasaTraceConfig {
  double base_rate = 60.0;         ///< mean requests/s
  double diurnal_amplitude = 0.45; ///< relative day/night swing
  double weekly_amplitude = 0.10;  ///< relative weekday/weekend swing
  double day_seconds = 86400.0;
  /// Time compression: simulated runs last ~1800 s, so one "day" of
  /// trace shape is squeezed into day_seconds / compression seconds.
  double compression = 96.0;
  double burst_rate_per_day = 18.0; ///< expected bursts per (real) day
  double burst_magnitude = 0.55;    ///< relative burst height (mean)
  double burst_duration_s = 45.0;   ///< burst length in compressed time
  double noise = 0.04;              ///< relative periodic jitter
  double horizon_s = 7200.0;        ///< precompute bursts up to here
};

class NasaTraceWorkload : public Workload {
 public:
  using Config = NasaTraceConfig;

  explicit NasaTraceWorkload(Config config = {}, std::uint64_t seed = 7);

  double rate(double t) const override;

  struct Burst {
    double start;
    double duration;
    double magnitude;  // relative
  };

  const Config& config() const { return config_; }
  /// The precomputed bursts, in order of start.
  const std::vector<Burst>& bursts() const { return bursts_; }

 private:
  Config config_;
  std::vector<Burst> bursts_;
  /// reach_[i]: the latest `start + duration` among bursts 0..i. It never
  /// decreases, so one binary search finds the first burst that can
  /// still be active at t.
  std::vector<double> reach_;
};

}  // namespace prepare
