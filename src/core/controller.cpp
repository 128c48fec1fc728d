#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace prepare {

namespace {

std::vector<std::string> attribute_feature_names() {
  std::vector<std::string> names;
  names.reserve(kAttributeCount);
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    names.push_back(attribute_name(static_cast<Attribute>(a)));
  return names;
}

double top_impact(const Classification& cls) {
  double best = 0.0;
  for (double impact : cls.impacts) best = std::max(best, impact);
  return best;
}

/// (attribute name, impact strength L_i) pairs for a cause_inferred
/// span, highest-ranked first.
std::vector<std::pair<std::string, double>> top_metric_attrs(
    const Diagnosis::FaultyVm& faulty) {
  std::vector<std::pair<std::string, double>> top;
  const std::size_t take = std::min<std::size_t>(3, faulty.ranked.size());
  top.reserve(take);
  for (std::size_t i = 0; i < take; ++i)
    top.emplace_back(attribute_name(faulty.ranked[i]), faulty.impacts[i]);
  return top;
}

/// The app's VMs in name order, the order of the controller's VM table.
std::vector<Vm*> vms_by_name(const Application& app) {
  std::vector<Vm*> vms = app.vms();
  std::sort(vms.begin(), vms.end(),
            [](const Vm* a, const Vm* b) { return a->name() < b->name(); });
  return vms;
}

/// With prediction off there is no look-ahead to calibrate and no
/// prediction evidence to record, so the introspector and the flight
/// recorder are dropped from the controller's context.
ControllerContext observers_for(ControllerContext ctx, bool predict) {
  if (!predict) {
    ctx.introspect = nullptr;
    ctx.recorder = nullptr;
  }
  return ctx;
}

}  // namespace

AnomalyManager::AnomalyManager(ControllerContext ctx) : ctx_(ctx) {
  PREPARE_CHECK(ctx.app != nullptr);
  PREPARE_CHECK(ctx.cluster != nullptr);
  PREPARE_CHECK(ctx.hypervisor != nullptr);
  PREPARE_CHECK(ctx.store != nullptr);
  PREPARE_CHECK(ctx.slo != nullptr);
  PREPARE_CHECK(ctx.log != nullptr);
}

// ---------------------------------------------------------------- PREPARE

PrepareController::PrepareController(ControllerContext ctx,
                                     PrepareConfig config)
    : PrepareController(ctx, config, /*predict=*/true) {}

PrepareController::PrepareController(ControllerContext ctx,
                                     PrepareConfig config, bool predict)
    : AnomalyManager(observers_for(ctx, predict)),
      config_(config),
      predict_(predict),
      lookahead_steps_(TickIndex{static_cast<std::size_t>(std::max(
          1.0,
          std::round(config.lookahead_s / config.sampling_interval_s)))}),
      inference_(ctx_.app->vms().size(), config.inference),
      actuator_(ctx_.hypervisor, ctx_.cluster, ctx_.store, ctx_.log,
                vms_by_name(*ctx_.app), config.prevention, ctx_.metrics,
                ctx_.tracer, ctx_.recorder) {
  PREPARE_CHECK_MSG(ctx_.num_threads == 1,
                    "the management round runs on one thread; "
                    "num_threads must be 1");
  const auto names = attribute_feature_names();
  if (ctx_.introspect != nullptr) {
    ctx_.introspect->set_horizon(lookahead_steps_.value(),
                                 config_.sampling_interval_s);
    ctx_.introspect->set_attribute_names(names);
  }
  if (ctx_.recorder != nullptr) {
    obs::DecisionConfig decision;
    decision.filter_k = config_.filter_k;
    decision.filter_w = config_.filter_w;
    decision.alert_min_top_impact = config_.alert_min_top_impact;
    decision.prevention_mode = static_cast<int>(config_.prevention.mode);
    decision.companion_scaling = config_.prevention.companion_scaling;
    decision.lookahead_s = config_.lookahead_s;
    decision.sampling_interval_s = config_.sampling_interval_s;
    ctx_.recorder->set_decision_config(decision);
    // The tracer owns the episode lifecycle; captures open and close
    // through its hooks.
    if (ctx_.tracer != nullptr) ctx_.tracer->set_recorder(ctx_.recorder);
  }
  const std::vector<Vm*> by_name = vms_by_name(*ctx_.app);
  for (const Vm* vm : by_name) {
    vms_.emplace_back(vm->name(),
                      AnomalyPredictor(names, config_.predictor, predict_),
                      AlarmFilter(config_.filter_k, config_.filter_w));
    vms_.back().predictor.set_metrics(ctx_.metrics);
    vms_.back().predictor.set_introspect(ctx_.introspect);
  }
  for (const Vm* vm : ctx_.app->vms())
    app_order_.push_back(static_cast<std::size_t>(
        std::find(by_name.begin(), by_name.end(), vm) - by_name.begin()));
  const auto stage = [this](const char* name) {
    return obs::stage_histogram(ctx_.metrics, name);
  };
  if (predict_) stage_alarm_filter_ = stage(obs::kStageAlarmFilter);
  stage_cause_inference_ = stage(obs::kStageCauseInference);
  stage_prevention_ = stage(obs::kStagePrevention);
  raw_alerts_counter_ =
      obs::counter(ctx_.metrics, "controller.raw_alerts_total");
  confirmed_alerts_counter_ =
      obs::counter(ctx_.metrics, "controller.confirmed_alerts_total");
  reactive_fallbacks_counter_ =
      obs::counter(ctx_.metrics, "controller.reactive_fallbacks_total");
}

void PrepareController::train(double t0, double t1) {
  std::size_t trained_models = 0, discriminative_models = 0;
  for (VmEntry& vm : vms_) {
    AnomalyPredictor& predictor = vm.predictor;
    const LabeledSamples samples =
        Labeler::label(*ctx_.store, *ctx_.slo, vm.name, t0, t1);
    if (samples.size() == 0) continue;
    predictor.train(samples.columns, samples.abnormal);
    ++trained_models;
    // Register the VM's evidence geometry with the flight recorder: the
    // flattened-distribution layout depends on the trained discretizer
    // alphabets (quantile binning merges ties), so this must happen
    // after train(). Capture is predictor-side: predict_into() fills
    // Result::evidence.
    if (ctx_.recorder != nullptr && !vm.recorder_slot) {
      obs::EvidenceLayout layout;
      layout.attributes = predictor.feature_names().size();
      layout.offsets.assign(layout.attributes + 1, 0);
      for (std::size_t a = 0; a < layout.attributes; ++a)
        layout.offsets[a + 1] =
            layout.offsets[a] + predictor.attribute_alphabet(a);
      layout.attribute_names = predictor.feature_names();
      layout.horizon_steps = lookahead_steps_.value();
      vm.recorder_slot = ctx_.recorder->register_vm(vm.name, layout);
      predictor.set_evidence_capture(true);
    }
    if (predictor.discriminative()) {
      ++discriminative_models;
    } else {
      PREPARE_INFO("prepare") << "model for " << vm.name
                              << " is not discriminative (train TPR "
                              << predictor.train_tpr()
                              << "): its alerts are suppressed";
    }
  }
  trained_ = true;
  PREPARE_INFO("prepare") << "trained " << trained_models
                          << " per-VM models over [" << t0 << ", " << t1
                          << "], " << discriminative_models
                          << " discriminative";
  if (predict_)
    ctx_.log->record(t1, EventKind::kInfo, "prepare",
                     "per-VM prediction models trained");
}

void PrepareController::on_sample(double now) {
  // 1. Feed the newest samples into the predictors and, when
  //    predicting, the workload-change detectors, in app order. The
  //    reactive round reads them only in its violated-SLO fallback.
  if (predict_ || ctx_.slo->currently_violated()) {
    for (const std::size_t i : app_order_) {
      VmEntry& vm = vms_[i];
      const AttributeVector* sample = ctx_.store->latest_sample(vm.name);
      if (sample == nullptr) continue;
      if (predict_) {
        obs::ScopedTimer timer(stage_cause_inference_);
        inference_.observe(i, now, *sample);
      }
      if (trained_ && vm.predictor.trained()) vm.predictor.observe(*sample);
    }
  }
  if (!trained_) return;

  // Episode bookkeeping: SLO edge detection (lead times / misses) and
  // stale-episode expiry, before this round's alerts open new episodes
  // — a confirmation in the same round as the violation onset has zero
  // lead and must not count as a prediction.
  if (ctx_.tracer != nullptr) {
    ctx_.tracer->observe_slo(now, ctx_.slo->currently_violated());
    ctx_.tracer->tick(now);
  }

  // 2. Per-VM prediction and false-alarm filtering (prediction on only).
  alerting_.assign(vms_.size(), nullptr);
  unhealthy_.assign(vms_.size(), false);
  if (predict_) predict_round(now);

  // 3. Reactive fallback: the SLO is already violated — diagnose from
  //    the current samples too, in case prediction missed (or confirmed
  //    only a bystander VM). The diagnosis covers every VM classifying
  //    abnormal with real attribution evidence; if none qualifies, the
  //    single most suspicious VM is acted on (the paper always
  //    intervenes once a violation is detected).
  if (ctx_.slo->currently_violated()) {
    obs::inc(reactive_fallbacks_counter_);
    PREPARE_INFO("prepare") << "SLO violated at t=" << now
                            << ": entering reactive fallback diagnosis";
    const auto reactive_alert = [&](std::size_t i, const Classification& cls) {
      unhealthy_[i] = true;
      if (alerting_[i] == nullptr) {  // a confirmed VM keeps its prediction
        vms_[i].alert = cls;
        alerting_[i] = &vms_[i].alert;
      }
      if (ctx_.tracer != nullptr)
        ctx_.tracer->reactive_alert(vms_[i].name, now);
    };
    Classification best;
    std::optional<std::size_t> best_vm;
    bool any_reactive = false;
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      if (!vms_[i].predictor.trained()) continue;
      Classification cls = vms_[i].predictor.classify_current();
      // Any VM that still classifies abnormal keeps its open validation
      // "unhealthy" — otherwise a drifting pick would bogusly mark
      // earlier preventions as effective mid-violation.
      if (cls.abnormal) unhealthy_[i] = true;
      if (cls.abnormal && top_impact(cls) >= config_.alert_min_top_impact) {
        any_reactive = true;
        reactive_alert(i, cls);
      }
      if (actuator_.validation_open(i)) continue;
      if (!best_vm || cls.score > best.score) {
        best = std::move(cls);
        best_vm = i;
      }
    }
    if (!any_reactive && best_vm) reactive_alert(*best_vm, best);
  }

  // 4. Validation of earlier preventions.
  {
    obs::ScopedTimer timer(stage_prevention_);
    actuator_.on_sample(now, unhealthy_);
  }

  // 5. Cause inference + actuation over the confirmed predictions and
  //    the reactive diagnoses.
  if (std::none_of(alerting_.begin(), alerting_.end(),
                   [](const Classification* cls) { return cls != nullptr; }))
    return;
  Diagnosis diagnosis;
  {
    obs::ScopedTimer timer(stage_cause_inference_);
    diagnosis = inference_.diagnose(alerting_);
    diagnosis.workload_change =
        predict_ && inference_.workload_change_suspected(now);
  }
  if (diagnosis.workload_change) {
    PREPARE_INFO("prepare") << "change points on all components at t=" << now
                            << ": workload change suspected";
    ctx_.log->record(now, EventKind::kInfo, "prepare",
                     "change points on all components: workload change "
                     "suspected");
  }
  if (ctx_.tracer != nullptr) {
    if (diagnosis.workload_change) {
      // Not a VM fault: the episodes are dropped from the trace. The
      // actuation below still runs unchanged — suppression is an
      // observability decision, not a behavior change.
      for (const auto& faulty : diagnosis.faulty)
        ctx_.tracer->workload_change_suppressed(vms_[faulty.vm].name, now);
    } else {
      for (const auto& faulty : diagnosis.faulty) {
        const std::string& name = vms_[faulty.vm].name;
        ctx_.tracer->cause_inferred(name, now, top_metric_attrs(faulty));
        // Full attribution ranking into the open capture (cold path:
        // at most one diagnosis per episode is kept).
        if (ctx_.recorder != nullptr) {
          std::vector<std::size_t> ranked(faulty.ranked.size());
          for (std::size_t r = 0; r < ranked.size(); ++r)
            ranked[r] = static_cast<std::size_t>(faulty.ranked[r]);
          ctx_.recorder->record_diagnosis(name, now, ranked.data(),
                                          faulty.impacts.data(),
                                          ranked.size());
        }
      }
    }
  }
  {
    obs::ScopedTimer timer(stage_prevention_);
    for (const auto& faulty : diagnosis.faulty) actuator_.actuate(faulty, now);
  }
}

void PrepareController::predict_round(double now) {
  // Calibration round: resolve the pending horizon predictions whose
  // target round is this one against the realized SLO state (the same
  // outcome definition the Labeler uses for training labels), then open
  // this round's slot for the probabilities recorded below.
  if (ctx_.introspect != nullptr)
    ctx_.introspect->begin_round(now, ctx_.slo->currently_violated());

  // The calibration-stride decision is made once per round; unsampled
  // rounds keep the bare (single final distribution) prediction cost.
  const bool horizon_due =
      ctx_.introspect != nullptr && ctx_.introspect->calibration_due();
  // One VM at a time, in name order: predict, then fold the calibration
  // path, apply the alert, filter push and trace, and record the
  // evidence frame.
  auto& result = result_;
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    VmEntry& vm = vms_[i];
    if (!vm.predictor.ready() || !vm.predictor.discriminative()) continue;
    vm.predictor.predict_into(lookahead_steps_, horizon_due, &result);
    // Fold this VM's predicted probability path into the calibration
    // tracker.
    if (ctx_.introspect != nullptr && !result.horizon_probs.empty())
      ctx_.introspect->record_horizon_probs(result.horizon_probs);
    const bool raw = result.classification.abnormal &&
                     top_impact(result.classification) >=
                         config_.alert_min_top_impact;
    if (raw) {
      ++raw_alerts_;
      obs::inc(raw_alerts_counter_);
      ctx_.log->record(now, EventKind::kAlert, vm.name, "predicted anomaly");
      if (ctx_.tracer != nullptr) ctx_.tracer->raw_alert(vm.name, now);
    }
    bool vm_confirmed;
    {
      obs::ScopedTimer timer(stage_alarm_filter_);
      vm_confirmed = vm.filter.push(raw);
    }
    if (vm_confirmed) {
      ++confirmed_alerts_;
      obs::inc(confirmed_alerts_counter_);
      vm.alert = result.classification;
      alerting_[i] = &vm.alert;
      unhealthy_[i] = true;
      PREPARE_INFO("prepare") << "confirmed predicted anomaly on " << vm.name
                              << " at t=" << now;
      ctx_.log->record(now, EventKind::kAlertConfirmed, vm.name,
                       "k-of-W confirmed");
      if (ctx_.tracer != nullptr) ctx_.tracer->confirmed(vm.name, now);
    }
    // Feed the flight recorder after the filter verdict so the frame
    // carries raw + confirmed. The tracer's raw_alert above already
    // opened any new episode, so an opening tick lands in the capture,
    // not just the ring.
    if (ctx_.recorder != nullptr && result.evidence.valid &&
        vm.recorder_slot) {
      obs::EvidenceFrame frame;
      frame.t = now;
      frame.abnormal = result.classification.abnormal;
      frame.raw_alert = raw;
      frame.confirmed = vm_confirmed;
      frame.score = result.classification.score;
      frame.prior_log_odds = result.evidence.prior_log_odds;
      frame.decomposable = result.evidence.decomposable;
      frame.raw = result.evidence.raw.data();
      frame.observed_row = result.evidence.observed_row.data();
      frame.mode_row = result.evidence.mode_row.data();
      frame.impacts = result.classification.impacts.data();
      frame.dists = result.evidence.dists.data();
      frame.horizon_probs = result.horizon_probs.empty()
                                ? nullptr
                                : result.horizon_probs.data();
      frame.horizon_len = result.horizon_probs.size();
      ctx_.recorder->record_tick(*vm.recorder_slot, frame);
    }
  }

  // Model-state probes on the introspector's round cadence: sweep every
  // trained predictor's transition rows and CPTs in name order, a
  // handful of rounds apart so the sweep cost stays inside the overhead
  // bar.
  if (ctx_.introspect != nullptr && ctx_.introspect->probe_due()) {
    ctx_.introspect->begin_probe(now);
    for (const VmEntry& vm : vms_)
      if (vm.predictor.trained()) vm.predictor.report_model_state();
    ctx_.introspect->end_probe();
  }
}
}  // namespace prepare
