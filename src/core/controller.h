// Anomaly management controllers.
//
//  * PrepareController — the full paper pipeline: per-VM online anomaly
//    prediction, k-of-W false-alarm filtering, cause inference, and
//    predictive prevention actuation, with a reactive fallback when the
//    predictor misses (Section II-D) and online prevention validation.
//  * ReactiveController — the paper's "reactive intervention" baseline:
//    the same PrepareController round with prediction off, so cause
//    inference and actuation are triggered only by the violated-SLO
//    fallback, after a violation has been detected.
//  * NoInterventionManager — the "without intervention" baseline.
//
// Controllers are driven by the experiment loop: once per sampling
// interval, after the monitor has appended fresh samples to the
// MetricStore, on_sample(now) runs one management round.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "apps/application.h"
#include "core/alarm_filter.h"
#include "core/anomaly_predictor.h"
#include "core/cause_inference.h"
#include "core/prevention.h"
#include "monitor/labeler.h"
#include "monitor/metric_store.h"
#include "monitor/slo_log.h"
#include "obs/flight_recorder.h"
#include "obs/model_introspect.h"
#include "obs/span_tracer.h"
#include "obs/stage_profiler.h"
#include "sim/cluster.h"
#include "sim/event_log.h"
#include "sim/hypervisor.h"

namespace prepare {

/// Wiring shared by every controller: the black-box view of the system.
struct ControllerContext {
  Application* app = nullptr;
  Cluster* cluster = nullptr;
  Hypervisor* hypervisor = nullptr;
  const MetricStore* store = nullptr;
  const SloLog* slo = nullptr;
  EventLog* log = nullptr;
  /// Optional observability registry: when set, the controller times
  /// every pipeline stage into stage.* histograms and counts alerts /
  /// fallbacks / preventions (must outlive the controller).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional alert-lifecycle span tracer (must outlive the
  /// controller). The controller drives it from the management round's
  /// driver thread, in VM-name order, so it needs no locking and a run
  /// produces the same span set every time (DESIGN.md section 10).
  obs::SpanTracer* tracer = nullptr;
  /// Optional model-introspection layer (must outlive the controller):
  /// per-horizon prediction calibration, model-state probes, and drift
  /// detection. Same confinement contract as the tracer: every
  /// introspector call happens on the driver thread, in VM-name order.
  /// Driven only with prediction on (the reactive baseline has no
  /// look-ahead to calibrate and ignores it).
  obs::ModelIntrospect* introspect = nullptr;
  /// Optional episode flight recorder (must outlive the controller).
  /// Same confinement contract again: the controller registers every
  /// trained VM, feeds one EvidenceFrame per (VM, round) in VM-name
  /// order, and forwards the diagnosis ranking; the actuator (which the
  /// controller hands the recorder to) adds one PreventionEvidence per
  /// action attempt. Episode captures open/close via the SpanTracer's
  /// lifecycle hooks, so the recorder is inert unless `tracer` is also
  /// set. Driven only with prediction on (the reactive baseline has no
  /// prediction evidence and ignores it).
  obs::FlightRecorder* recorder = nullptr;
  /// Must be 1: the round runs on one thread (DESIGN.md section 10).
  /// Kept only because the repo benchmark's harness assigns it; the
  /// PrepareController constructor rejects any other value.
  std::size_t num_threads = 1;
};

/// Full PREPARE configuration (paper defaults).
struct PrepareConfig {
  PredictorConfig predictor;
  double sampling_interval_s = 5.0;
  /// Alert horizon. The paper's controller predicts over a long
  /// look-ahead window ("e.g., 120 seconds", Section II-A) so that a
  /// gradually degrading attribute is forecast deep into the anomaly
  /// region well before the SLO trips.
  double lookahead_s = 120.0;
  std::size_t filter_k = 3;   ///< k-of-W false-alarm filter
  std::size_t filter_w = 4;
  /// Attribution-confidence gate: a per-VM alert is only raised when the
  /// top-ranked metric's impact strength L_i reaches this value. A VM
  /// whose metrics carry no real evidence (score hovering at the class
  /// prior) cannot be pinpointed — and PREPARE cannot choose a prevention
  /// action without a pinpointed metric.
  double alert_min_top_impact = 0.5;
  PreventionConfig prevention;
  CauseInference::Config inference;
};

class AnomalyManager {
 public:
  explicit AnomalyManager(ControllerContext ctx);
  virtual ~AnomalyManager() = default;

  /// One management round; `now` is the sampling timestamp.
  virtual void on_sample(double now) = 0;

  /// Trains internal models from the labeled history in [t0, t1].
  virtual void train(double /*t0*/, double /*t1*/) {}

  virtual std::string name() const = 0;

 protected:
  ControllerContext ctx_;
};

class NoInterventionManager : public AnomalyManager {
 public:
  using AnomalyManager::AnomalyManager;
  void on_sample(double) override {}
  std::string name() const override { return "without-intervention"; }
};

class PrepareController : public AnomalyManager {
 public:
  PrepareController(ControllerContext ctx,
                    PrepareConfig config = PrepareConfig());

  void train(double t0, double t1) override;
  void on_sample(double now) override;
  std::string name() const override {
    return predict_ ? "prepare" : "reactive";
  }

  bool trained() const { return trained_; }

  // Counters for experiments / tests.
  std::size_t raw_alerts() const { return raw_alerts_; }
  std::size_t confirmed_alerts() const { return confirmed_alerts_; }

 protected:
  /// `predict` = false runs the round without its predictive parts:
  /// predictors without look-ahead (no Markov bank, so no raw or
  /// confirmed alerts), no feed into the workload-change detectors (so
  /// no workload-change screen), and no introspection or
  /// flight-recorder feeds (ctx.introspect and ctx.recorder are
  /// ignored). The predictors are fed only in rounds whose SLO is
  /// violated, where the fallback classifies their rows and triggers
  /// every diagnosis and action.
  PrepareController(ControllerContext ctx, PrepareConfig config,
                    bool predict);

 private:
  struct VmEntry {
    std::string name;
    AnomalyPredictor predictor;
    AlarmFilter filter;
    std::optional<std::size_t> recorder_slot;  ///< set by train()
    Classification alert;  ///< this round's, when alerting_ points here
  };

  /// The predictive part of a round: look-ahead, k-of-W filtering,
  /// introspection and evidence feeds, one VM at a time in name order.
  void predict_round(double now);

  PrepareConfig config_;
  bool predict_;
  TickIndex lookahead_steps_;
  bool trained_ = false;

  /// The app's VMs in name order, the order of every per-VM walk but
  /// the observe loop; inference_ and actuator_ use the same positions.
  std::vector<VmEntry> vms_;
  /// Positions of the app's VMs in app order, the observe loop's order.
  std::vector<std::size_t> app_order_;
  /// Round scratch by position: each alerting VM's classification (null
  /// when quiet), and whether each VM is still unhealthy.
  std::vector<const Classification*> alerting_;
  std::vector<bool> unhealthy_;
  CauseInference inference_;
  PreventionActuator actuator_;
  /// One prediction, reused by every VM in every round so the steady
  /// state allocates nothing (predict_into refills it in place).
  AnomalyPredictor::Result result_;

  std::size_t raw_alerts_ = 0;
  std::size_t confirmed_alerts_ = 0;

  // Observability handles (null = uninstrumented).
  obs::Histogram* stage_alarm_filter_ = nullptr;
  obs::Histogram* stage_cause_inference_ = nullptr;
  obs::Histogram* stage_prevention_ = nullptr;
  obs::Counter* raw_alerts_counter_ = nullptr;
  obs::Counter* confirmed_alerts_counter_ = nullptr;
  obs::Counter* reactive_fallbacks_counter_ = nullptr;
};

/// The paper's reactive-intervention baseline (Section II-D): PREPARE's
/// own cause inference and prevention, applied only after an SLO
/// violation has been detected.
class ReactiveController : public PrepareController {
 public:
  ReactiveController(ControllerContext ctx,
                     PrepareConfig config = PrepareConfig())
      : PrepareController(ctx, config, /*predict=*/false) {}
};

}  // namespace prepare
