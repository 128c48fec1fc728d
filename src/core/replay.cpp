#include "core/replay.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/units.h"
#include "core/alarm_filter.h"
#include "monitor/labeler.h"

namespace prepare {

namespace {

const char* applied_name(int applied) {
  switch (applied) {
    case 1:
      return "scale";
    case 2:
      return "migrate";
    default:
      return "none";
  }
}

/// The prevention decision function, lifted out of
/// PreventionActuator::apply_action: given the policy mode and the
/// feasibility flags the live run consulted, which action fires?
/// `metric_kind` is 0 cpu / 1 memory / 2 other; only cpu/memory are
/// scalable. Must mirror core/prevention.cpp exactly — the replay
/// bit-identity tests pin the two together.
int decide_applied(int mode, int metric_kind, bool scale_possible,
                   bool migrate_possible) {
  const bool scalable = metric_kind != 2 && scale_possible;
  switch (mode) {
    case 0:  // kScalingOnly
      return scalable ? 1 : 0;
    case 1:  // kMigrationOnly (scaling is the fallback remedy)
      if (migrate_possible) return 2;
      return scalable ? 1 : 0;
    default:  // kScalingThenMigration
      if (scalable) return 1;
      return migrate_possible ? 2 : 0;
  }
}

std::string attr_label(const obs::EpisodeBundle& bundle, std::size_t a) {
  if (a < bundle.layout.attribute_names.size())
    return bundle.layout.attribute_names[a];
  std::ostringstream os;
  os << "attr" << a;
  return os.str();
}

}  // namespace

ReplayReport replay_trace(const MetricStore& store, const SloLog& slo,
                          const ReplayConfig& config,
                          std::vector<std::string> vm_names) {
  if (vm_names.empty()) vm_names = store.vm_names();
  PREPARE_CHECK_MSG(!vm_names.empty(), "trace has no VMs");
  const auto steps = static_cast<std::size_t>(std::max(
      1.0, std::round(config.lookahead_s / config.sampling_interval_s)));

  std::vector<std::string> features;
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    features.push_back(attribute_name(static_cast<Attribute>(a)));

  // Train one model per VM on the labeled prefix (parallel to vm_names).
  std::vector<AnomalyPredictor> predictors;
  std::vector<AlarmFilter> filters;
  for (const auto& vm : vm_names) {
    AnomalyPredictor& predictor =
        predictors.emplace_back(features, config.predictor);
    const LabeledSamples samples =
        Labeler::label(store, slo, vm, 0.0, config.train_end);
    PREPARE_CHECK_MSG(samples.size() > 0, "no training samples for " + vm);
    predictor.train(samples.columns, samples.abnormal);
    filters.emplace_back(config.filter_k, config.filter_w);
  }

  // Replay.
  ReplayReport report;
  const std::size_t total = store.sample_count(vm_names[0]);
  double last_time = config.train_end;
  for (std::size_t i = 0; i < total; ++i) {
    const double t = store.sample_time(vm_names[0], i);
    if (t <= config.train_end) continue;
    last_time = t;
    if (config.tracer != nullptr) {
      config.tracer->observe_slo(t, slo.violated_at(t));
      config.tracer->tick(t);
    }
    for (std::size_t v = 0; v < vm_names.size(); ++v) {
      const std::string& vm = vm_names[v];
      AnomalyPredictor& predictor = predictors[v];
      predictor.observe(store.sample(vm, i));
      if (!predictor.ready() || !predictor.discriminative()) continue;
      const auto result = predictor.predict(TickIndex{steps});
      double top = 0.0;
      for (double impact : result.classification.impacts)
        top = std::max(top, impact);
      const bool raw = result.classification.abnormal &&
                       top >= config.alert_min_top_impact;
      const bool confirmed = filters[v].push(raw);
      if (!raw && !confirmed) continue;
      ReplayAlert alert;
      alert.time = t;
      alert.vm = vm;
      alert.confirmed = confirmed;
      alert.score = result.classification.score;
      const auto order =
          Classifier::ranked_attributes(result.classification);
      for (std::size_t k = 0; k < 3 && k < order.size(); ++k) {
        if (result.classification.impacts[order[k]] <= 0.0) break;
        alert.top_metrics.push_back(static_cast<Attribute>(order[k]));
      }
      if (raw) ++report.raw_alerts;
      if (confirmed) {
        ++report.confirmed_alerts;
        if (report.first_confirmed < 0.0) report.first_confirmed = t;
      }
      if (config.tracer != nullptr) {
        if (raw) config.tracer->raw_alert(vm, t);
        if (confirmed) {
          config.tracer->confirmed(vm, t);
          std::vector<std::pair<std::string, double>> top;
          for (std::size_t k = 0; k < alert.top_metrics.size(); ++k)
            top.emplace_back(
                attribute_name(alert.top_metrics[k]),
                result.classification.impacts[static_cast<std::size_t>(
                    alert.top_metrics[k])]);
          config.tracer->cause_inferred(vm, t, top);
        }
      }
      report.alerts.push_back(std::move(alert));
    }
  }
  if (config.tracer != nullptr) config.tracer->finish(last_time);
  return report;
}

// ------------------------------------------------ episode bundle replay

EpisodeReplayResult replay_episode(const obs::EpisodeBundle& bundle) {
  EpisodeReplayResult res;
  const auto note = [&res](const std::string& msg) {
    if (res.first_mismatch.empty()) res.first_mismatch = msg;
  };
  const std::size_t n = bundle.layout.attributes;
  PREPARE_CHECK(bundle.layout.offsets.size() == n + 1);

  // When the bundle carries fewer pre-context ticks than the filter
  // window, the ring was not yet clipped (pre_context_ticks >= W is
  // enforced at capture time), i.e. the capture holds the VM's *entire*
  // push history and the replayed filter is exact from the first tick.
  // Otherwise the window is only fully determined once W seeds are in.
  const bool full_history = bundle.pre_ticks < bundle.decision.filter_w;
  AlarmFilter filter(bundle.decision.filter_k, bundle.decision.filter_w);
  std::size_t pushes = 0;

  for (std::size_t s = 0; s < bundle.ticks.size(); ++s) {
    const auto& tick = bundle.ticks[s];
    ++res.ticks_checked;

    // Classifier score: Eq. 1 re-summed left-to-right, exactly as
    // TAN/NB accumulate it — floating-point addition is not
    // associative, so the order is part of the contract.
    if (tick.decomposable) {
      LogOdds score{tick.prior_log_odds};
      for (std::size_t i = 0; i < n; ++i) score += tick.impacts[i];
      if (static_cast<double>(score) != tick.score) {
        ++res.score_mismatches;
        std::ostringstream os;
        os << "tick " << s << " (t=" << tick.t << "): replayed score "
           << static_cast<double>(score) << " != recorded " << tick.score;
        note(os.str());
      }
    }

    // Anomaly verdict: score strictly above even prior+evidence odds.
    if ((tick.score > 0.0) != tick.abnormal) {
      ++res.abnormal_mismatches;
      std::ostringstream os;
      os << "tick " << s << " (t=" << tick.t
         << "): abnormal flag inconsistent with score " << tick.score;
      note(os.str());
    }

    // Markov look-ahead modes: argmax (first maximum, like
    // Distribution::mode) of each captured per-attribute distribution.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = bundle.layout.offsets[i];
      const std::size_t hi = bundle.layout.offsets[i + 1];
      std::size_t best = 0;
      for (std::size_t b = 1; b < hi - lo; ++b)
        if (tick.dists[lo + b] > tick.dists[lo + best]) best = b;
      if (best != tick.mode_row[i]) {
        ++res.mode_mismatches;
        std::ostringstream os;
        os << "tick " << s << " (t=" << tick.t << "): "
           << attr_label(bundle, i) << " mode bin " << best
           << " != recorded " << tick.mode_row[i];
        note(os.str());
      }
    }

    // Raw alert gate: abnormal + attribution confidence.
    double top = 0.0;
    for (std::size_t i = 0; i < n; ++i) top = std::max(top, tick.impacts[i]);
    const bool raw =
        tick.abnormal && top >= bundle.decision.alert_min_top_impact;
    if (raw != tick.raw_alert) {
      ++res.alert_mismatches;
      std::ostringstream os;
      os << "tick " << s << " (t=" << tick.t << "): replayed raw alert "
         << raw << " != recorded " << tick.raw_alert;
      note(os.str());
    }

    // k-of-W confirmation, seeded from the recorded raw flags so a raw
    // mismatch above doesn't cascade into every later filter check.
    const bool confirmed = filter.push(tick.raw_alert);
    ++pushes;
    if ((full_history || pushes >= bundle.decision.filter_w) &&
        confirmed != tick.confirmed) {
      ++res.filter_mismatches;
      std::ostringstream os;
      os << "tick " << s << " (t=" << tick.t << "): replayed confirmed "
         << confirmed << " != recorded " << tick.confirmed;
      note(os.str());
    }
  }

  // Diagnosis: the recorded ranking must be the positive-impact prefix
  // of the stable impact sort. When the episode's confirming tick is in
  // the capture (predictive episodes — the reactive path diagnoses from
  // a separate classify_current call), re-rank its impacts and compare.
  if (bundle.diagnosis.valid) {
    res.diagnosis_checked = true;
    const auto& d = bundle.diagnosis;
    for (std::size_t r = 0; r < d.ranked.size() && res.diagnosis_ok; ++r) {
      if (d.impacts[r] <= 0.0 ||
          (r > 0 && d.impacts[r] > d.impacts[r - 1])) {
        res.diagnosis_ok = false;
        note("diagnosis ranking not a positive non-increasing prefix");
      }
    }
    const obs::EvidenceTick* at = nullptr;
    for (const auto& tick : bundle.ticks)
      if (tick.t == d.t) {
        at = &tick;
        break;
      }
    bool impacts_match = at != nullptr;
    for (std::size_t r = 0; impacts_match && r < d.ranked.size(); ++r)
      impacts_match = d.ranked[r] < n && d.impacts[r] == at->impacts[d.ranked[r]];
    if (impacts_match) {
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return at->impacts[a] > at->impacts[b];
                       });
      for (std::size_t r = 0; r < d.ranked.size() && res.diagnosis_ok; ++r) {
        if (order[r] != d.ranked[r]) {
          res.diagnosis_ok = false;
          std::ostringstream os;
          os << "diagnosis rank " << r << ": replayed "
             << attr_label(bundle, order[r]) << " != recorded "
             << attr_label(bundle, d.ranked[r]);
          note(os.str());
        }
      }
    }
  }

  // Prevention: re-derive each attempt's action from the policy mode
  // and the feasibility flags the live run consulted. Companion
  // attempts (phase 1) are always a scaling, under every mode.
  for (const auto& p : bundle.preventions) {
    ++res.preventions_checked;
    const int applied =
        p.phase == 1 ? (p.scale_possible ? 1 : 0)
                     : decide_applied(bundle.decision.prevention_mode,
                                      p.metric_kind, p.scale_possible,
                                      p.migrate_possible);
    if (applied != p.applied) {
      ++res.prevention_mismatches;
      std::ostringstream os;
      os << "prevention at t=" << p.t << " on "
         << attr_label(bundle, p.attribute) << ": replayed "
         << applied_name(applied) << " != recorded "
         << applied_name(p.applied);
      note(os.str());
    }
  }

  res.ok = res.score_mismatches == 0 && res.abnormal_mismatches == 0 &&
           res.mode_mismatches == 0 && res.alert_mismatches == 0 &&
           res.filter_mismatches == 0 && res.diagnosis_ok &&
           res.prevention_mismatches == 0;
  return res;
}

WhatIfResult what_if_policy(const obs::EpisodeBundle& bundle, int policy) {
  WhatIfResult res;
  res.policy = policy;
  for (const auto& p : bundle.preventions) {
    // Companion scalings are policy-independent; only the initial
    // ranked walk and validation fallbacks consult the mode.
    if (p.phase == 1) continue;
    const int cf = decide_applied(policy, p.metric_kind, p.scale_possible,
                                  p.migrate_possible);
    ++res.compared;
    res.decisions.emplace_back(p.applied, cf);
    if (cf != p.applied) {
      ++res.diverged;
      if (res.detail.empty()) {
        std::ostringstream os;
        os << "t=" << p.t << " " << attr_label(bundle, p.attribute)
           << ": " << applied_name(p.applied) << " -> "
           << applied_name(cf);
        res.detail = os.str();
      }
    }
  }
  return res;
}

}  // namespace prepare
