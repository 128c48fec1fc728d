// Online anomaly cause inference (paper Section II-C).
//
// Answers, once an alarm is confirmed: (1) which VMs are faulty — the
// ones whose per-VM prediction models raise the alert — and (2) which
// system metrics on those VMs are most related — the TAN attribution
// ranking. Also distinguishes a workload change from an internal fault:
// change points appearing on (nearly) every component at about the same
// time indicate an external workload change [13].
#pragma once

#include <vector>

#include "models/classifier.h"
#include "monitor/attributes.h"
#include "timeseries/changepoint.h"

namespace prepare {

struct Diagnosis {
  struct FaultyVm {
    std::size_t vm = 0;               ///< position in the VM table
    double score = 0.0;               ///< classifier log-odds
    std::vector<Attribute> ranked;    ///< metrics, most relevant first
    std::vector<double> impacts;      ///< L_i per ranked metric (parallel)
  };
  std::vector<FaultyVm> faulty;       ///< sorted by score, descending
  bool workload_change = false;
};

struct CauseInferenceConfig {
  /// How many top-ranked metrics to keep per faulty VM. Wide enough that
  /// a memory root cause is not crowded out of the list by the several
  /// CPU-flavoured symptom metrics (cpu_util, load1, load5, run_queue).
  std::size_t top_attributes = 6;
  /// Fraction of components that must show a recent change point to
  /// call the anomaly a workload change (paper: "all the application
  /// components"; a tolerance makes this robust to one noisy monitor).
  double workload_change_fraction = 1.0;
  /// A change point is "recent" within this many seconds.
  double recent_window_s = 60.0;
  CusumConfig cusum;
};

class CauseInference {
 public:
  using Config = CauseInferenceConfig;

  /// State for VMs 0 .. vm_count-1, the positions FaultyVm::vm carries.
  explicit CauseInference(std::size_t vm_count, Config config = Config());

  /// Feeds one monitoring sample of VM `vm` (workload-sensitive
  /// attribute streams drive the per-VM change-point detectors).
  void observe(std::size_t vm, double now, const AttributeVector& values);

  /// Builds the diagnosis from the classification results of the models
  /// that raised (confirmed) alerts: `alerting[i]` is VM i's, null when
  /// VM i raised none. Ties in score keep position order.
  Diagnosis diagnose(
      const std::vector<const Classification*>& alerting) const;

  /// Whether a workload change is suspected at `now`.
  bool workload_change_suspected(double now) const;

 private:
  Config config_;
  /// Per-VM change detector over the workload-sensitive attribute
  /// (network input reflects offered load on every component).
  std::vector<CusumDetector> detectors_;
  std::vector<double> last_change_time_;  ///< negative before the first
};

}  // namespace prepare
