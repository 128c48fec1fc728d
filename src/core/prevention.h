// Predictive prevention actuation with effectiveness validation (paper
// Section II-D).
//
// Maps a diagnosis (faulty VM + ranked metrics) onto hypervisor actions:
//
//  * memory-implicated metrics -> memory ballooning up;
//  * CPU-implicated metrics    -> CPU cap increase;
//  * live migration            -> relocate the VM to a host with matching
//    resources, landing with a grown allocation of the implicated kind.
//
// Mode selects the paper's two experiment configurations (scaling for
// Figs. 6/7, migration for Figs. 8/9) plus the deployment default:
// scaling first, migration when scaling cannot be applied ("insufficient
// resources on the local host").
//
// Every action opens a validation record: after a look-ahead delay the
// actuator compares the acted metric's usage against the pre-action
// look-back window. If the component is healthy again the prevention
// succeeded; if the metric did not respond, the action targeted the
// wrong metric and the next metric in the TAN ranking is tried.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/cause_inference.h"
#include "monitor/attributes.h"
#include "monitor/metric_store.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "sim/event_log.h"
#include "sim/hypervisor.h"

namespace prepare {

enum class PreventionMode {
  kScalingOnly,
  kMigrationOnly,
  kScalingThenMigration,
};

struct PreventionConfig {
  PreventionMode mode = PreventionMode::kScalingThenMigration;
  /// Scaling targets: new allocation = old x factor (clamped to host
  /// headroom; a clamped-to-nothing increase counts as "cannot scale").
  double cpu_scale_factor = 1.6;
  double mem_scale_factor = 2.0;
  /// Migration lands the VM with a larger grown allocation of the
  /// implicated resource — a host "with the desired resources" should
  /// also absorb further growth, since a second migration is expensive.
  double migration_cpu_factor = 1.8;
  double migration_mem_factor = 2.5;
  /// Minimum meaningful allocation increase; below this scaling is
  /// reported impossible (insufficient resources on the local host).
  double min_cpu_step = 0.1;
  double min_mem_step_mb = 64.0;
  /// Prevention-effectiveness validation (paper Section II-D). When
  /// disabled (ablation), actions fire but a wrong-metric prevention is
  /// never corrected by falling back to the next ranked metric.
  bool validation_enabled = true;
  /// Companion scaling: also act on the next ranked metric of the other
  /// resource kind in the same shot (a saturated CPU is often the
  /// symptom of a memory root cause). Disable to rely on validation
  /// fallback alone (ablation).
  bool companion_scaling = true;
  /// Validation windows (paper: look-back / look-ahead around the
  /// prevention) and the relative usage change that counts as an effect.
  double validation_delay_s = 20.0;
  double lookback_s = 20.0;
  double min_relative_change = 0.08;
  /// Elastic scale-down (CloudScale-style [4]): allocations grown by a
  /// prevention are returned toward the baseline once the VM has been
  /// healthy and under-utilized for a sustained window, so one incident
  /// does not permanently over-provision the VM.
  bool reclaim_enabled = true;
  double reclaim_idle_s = 60.0;       ///< sustained healthy+idle window
  double reclaim_cpu_util_pct = 40.0; ///< mean CPU% below this is idle
  double reclaim_mem_util_pct = 55.0; ///< mean mem% below this is idle
  double reclaim_factor = 0.75;       ///< shrink per reclaim step
  /// A VM that just migrated is not migrated again for this long — live
  /// migration is expensive and ping-ponging a VM between hosts makes
  /// the degradation it is meant to cure worse.
  double migration_cooldown_s = 90.0;
};

class PreventionActuator {
 public:
  /// Manages `vms`, whose allocations now are the baselines: FaultyVm::vm,
  /// `unhealthy` and validation_open() index them by position, and every
  /// per-VM walk runs in their order. `metrics` (optional) receives
  /// prevention.* counters; `tracer` (optional) receives the
  /// prevention-side episode transitions (prevention_issued / validated /
  /// escalated); `recorder` (optional) receives one PreventionEvidence
  /// per action attempt (including failed ones) so episode bundles carry
  /// every prevention decision input. All must outlive the actuator.
  PreventionActuator(Hypervisor* hypervisor, Cluster* cluster,
                     const MetricStore* store, EventLog* log,
                     const std::vector<Vm*>& vms,
                     PreventionConfig config = PreventionConfig(),
                     obs::MetricsRegistry* metrics = nullptr,
                     obs::SpanTracer* tracer = nullptr,
                     obs::FlightRecorder* recorder = nullptr);

  /// Triggers a prevention for one diagnosed faulty VM. Returns true if
  /// an action was fired. No-op while a validation for that VM is open.
  bool actuate(const Diagnosis::FaultyVm& faulty, double now);

  /// Drives validation; call once per sampling interval. `unhealthy[i]`
  /// says whether VM i is still unhealthy (alerting or SLO-violating).
  void on_sample(double now, const std::vector<bool>& unhealthy);

  /// Whether a validation is currently open for VM `vm`.
  bool validation_open(std::size_t vm) const;

  // Counters for experiments / tests.
  std::size_t actions_fired() const { return actions_fired_; }
  std::size_t validations_failed() const { return validations_failed_; }

 private:
  struct PendingValidation {
    double action_time = 0.0;
    Attribute acted{};
    std::vector<Attribute> ranked;  ///< full ranking for fallback
    std::size_t next_index = 0;     ///< next ranked metric to try
    double lookback_mean = 0.0;
  };

  struct ManagedVm {
    Vm* vm;
    double baseline_cpu;  ///< cores
    double baseline_mem;  ///< MB
    std::optional<PendingValidation> pending;
    double last_action_time;     ///< prevention or reclaim; -inf for none
    double last_migration_time;  ///< -inf for none
  };

  enum class MetricKind { kCpu, kMemory, kOther };
  static MetricKind kind_of(Attribute a);

  /// Executes one action for `m` keyed on attribute `a`; returns false
  /// if no action could be applied. `phase` tags the attempt for the
  /// flight recorder (0 initial ranked walk, 2 validation fallback).
  bool apply_action(ManagedVm& m, Attribute a, double now, int phase = 0);
  bool try_scale(Vm* vm, MetricKind kind);
  bool try_migrate(ManagedVm& m, double now);
  /// Side-effect-free feasibility probes, mirroring try_scale /
  /// try_migrate. Used only to fill recorder evidence fields the live
  /// mode did not consult (what-if replay needs both flags; the flags
  /// the mode *did* consult come from the actual attempt outcomes).
  bool probe_can_scale(const Vm& vm, MetricKind kind) const;
  bool probe_can_migrate(const ManagedVm& m, double now) const;
  /// Records one prevention attempt into the flight recorder (no-op
  /// when detached). Consulted outcomes are authoritative; unconsulted
  /// flags fall back to the probes.
  void record_attempt(const ManagedVm& m, Attribute a, MetricKind kind,
                      double now, int phase, bool scale_known,
                      bool scale_ok, bool migrate_known, bool migrate_ok,
                      int applied);
  double lookback_mean(const std::string& vm, Attribute a, double now) const;
  void maybe_reclaim(double now, const std::vector<bool>& unhealthy);

  Hypervisor* hypervisor_;
  Cluster* cluster_;
  const MetricStore* store_;
  EventLog* log_;
  PreventionConfig config_;
  obs::SpanTracer* tracer_;        ///< not owned; may be null
  obs::FlightRecorder* recorder_;  ///< not owned; may be null

  std::vector<ManagedVm> vms_;
  std::size_t actions_fired_ = 0;
  std::size_t validations_failed_ = 0;

  // Observability counters (null = uninstrumented).
  obs::Counter* actions_counter_ = nullptr;
  obs::Counter* validations_failed_counter_ = nullptr;
  obs::Counter* reclaims_counter_ = nullptr;
  obs::Counter* migrations_skipped_counter_ = nullptr;
};

}  // namespace prepare
