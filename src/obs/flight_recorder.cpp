#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "obs/json.h"

namespace prepare {
namespace obs {

namespace {

const char* prevention_phase_name(int phase) {
  switch (phase) {
    case 0: return "initial";
    case 1: return "companion";
    case 2: return "fallback";
  }
  return "?";
}

const char* metric_kind_name(int kind) {
  switch (kind) {
    case 0: return "cpu";
    case 1: return "memory";
    case 2: return "other";
  }
  return "?";
}

const char* applied_action_name(int applied) {
  switch (applied) {
    case 0: return "none";
    case 1: return "scale";
    case 2: return "migrate";
  }
  return "?";
}

/// The keys prefix + first, prefix + (first + 1), ... (`count` of them).
std::vector<std::string> numbered_keys(const char* prefix, std::size_t first,
                                       std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    keys.push_back(prefix + std::to_string(first + i));
  return keys;
}

}  // namespace

FlightRecorder::FlightRecorder(MetricsRegistry* metrics,
                               FlightRecorderConfig config)
    : config_(config),
      bundles_counter_(counter(metrics, "recorder.bundles_total")),
      dropped_counter_(counter(metrics, "recorder.dropped_total")),
      ticks_counter_(counter(metrics, "recorder.ticks_recorded_total")),
      truncated_counter_(counter(metrics, "recorder.truncated_ticks_total")),
      high_water_gauge_(gauge(metrics, "recorder.ring_high_water")) {
  PREPARE_CHECK(config_.ring_ticks > 0);
  PREPARE_CHECK(config_.max_bundle_ticks > 0);
  PREPARE_CHECK(config_.max_bundles > 0);
  PREPARE_CHECK_MSG(config_.pre_context_ticks <= config_.ring_ticks,
                    "pre-alert context cannot exceed the ring capacity");
}

void FlightRecorder::set_decision_config(const DecisionConfig& decision) {
  // Replay seeds its alarm filter from the captured pre-context; with
  // fewer than W pre ticks the filter window at the first episode tick
  // would depend on evidence the ring already evicted.
  PREPARE_CHECK_MSG(config_.pre_context_ticks >= decision.filter_w,
                    "pre_context_ticks must cover the alarm filter window");
  decision_ = decision;
}

void FlightRecorder::size_tick(EvidenceTick* tick,
                               const EvidenceLayout& layout) const {
  tick->raw.resize(layout.attributes);
  tick->observed_row.resize(layout.attributes);
  tick->mode_row.resize(layout.attributes);
  tick->impacts.resize(layout.attributes);
  tick->dists.resize(layout.offsets.back());
  tick->horizon_probs.resize(layout.horizon_steps);
  tick->horizon_len = 0;
  tick->valid = false;
}

std::size_t FlightRecorder::register_vm(const std::string& vm,
                                        EvidenceLayout layout) {
  PREPARE_CHECK_MSG(slots_.count(vm) == 0, "VM registered twice: " + vm);
  PREPARE_CHECK(layout.attributes > 0);
  PREPARE_CHECK(layout.offsets.size() == layout.attributes + 1);
  PREPARE_CHECK(layout.attribute_names.size() == layout.attributes);
  PerVm per;
  per.name = vm;
  per.layout = std::move(layout);
  per.ring.resize(config_.ring_ticks);
  for (auto& tick : per.ring) size_tick(&tick, per.layout);
  // The open-capture storage is pre-sized here too, so an episode
  // opening (and every capture append) stays allocation-free.
  per.open.ticks.resize(config_.max_bundle_ticks);
  for (auto& tick : per.open.ticks) size_tick(&tick, per.layout);
  vms_.push_back(std::move(per));
  const std::size_t slot = vms_.size() - 1;
  slots_.emplace(vm, slot);
  return slot;
}

void FlightRecorder::copy_frame(const EvidenceFrame& frame,
                                const EvidenceLayout& layout,
                                EvidenceTick* out) const {
  out->t = frame.t;
  out->abnormal = frame.abnormal;
  out->raw_alert = frame.raw_alert;
  out->confirmed = frame.confirmed;
  out->score = frame.score;
  out->prior_log_odds = frame.prior_log_odds;
  out->decomposable = frame.decomposable;
  const std::size_t n = layout.attributes;
  std::copy(frame.raw, frame.raw + n, out->raw.begin());
  std::copy(frame.observed_row, frame.observed_row + n,
            out->observed_row.begin());
  std::copy(frame.mode_row, frame.mode_row + n, out->mode_row.begin());
  std::copy(frame.impacts, frame.impacts + n, out->impacts.begin());
  std::copy(frame.dists, frame.dists + layout.offsets.back(),
            out->dists.begin());
  PREPARE_DCHECK(frame.horizon_len <= layout.horizon_steps);
  out->horizon_len = frame.horizon_len;
  if (frame.horizon_len > 0)
    std::copy(frame.horizon_probs, frame.horizon_probs + frame.horizon_len,
              out->horizon_probs.begin());
  out->valid = true;
}

void FlightRecorder::record_tick(std::size_t slot,
                                 const EvidenceFrame& frame) {
  PREPARE_DCHECK(slot < vms_.size());
  PerVm& vm = vms_[slot];
  copy_frame(frame, vm.layout, &vm.ring[vm.head]);
  vm.head = (vm.head + 1) % config_.ring_ticks;
  if (vm.filled < config_.ring_ticks) ++vm.filled;
  if (vm.filled > ring_high_water_) ring_high_water_ = vm.filled;
  ++ticks_recorded_;
  if (!vm.capture_open) return;
  if (vm.capture_len < vm.open.ticks.size()) {
    copy_frame(frame, vm.layout, &vm.open.ticks[vm.capture_len]);
    ++vm.capture_len;
  } else {
    ++vm.open.truncated_ticks;
    ++truncated_ticks_;
  }
}

FlightRecorder::PerVm* FlightRecorder::find_vm(const std::string& vm) {
  auto it = slots_.find(vm);
  return it == slots_.end() ? nullptr : &vms_[it->second];
}

void FlightRecorder::episode_opened(const std::string& vm,
                                    const std::string& trace_id,
                                    double now) {
  PerVm* per = find_vm(vm);
  if (per == nullptr) return;  // VM never registered (e.g. not trained)
  PREPARE_DCHECK(!per->capture_open)
      << "episode opened while a capture is already open on " << vm;
  if (bundles_.size() >= config_.max_bundles) {
    ++dropped_;
    return;
  }
  per->capture_open = true;
  EpisodeBundle& open = per->open;
  open.trace_id = trace_id;
  open.vm = vm;
  open.t_open = now;
  open.t_close = now;
  open.outcome.clear();
  open.truncated_ticks = 0;
  open.layout = per->layout;
  open.decision = decision_;
  open.diagnosis = DiagnosisEvidence();
  open.preventions.clear();
  open.counterfactuals.clear();
  // Seed with the pre-alert ring context, oldest first. On the
  // predicted path the controller opens the episode (via the tracer)
  // before calling record_tick for this round, so the opening tick
  // arrives through the capture path below; a reactive-fallback open
  // runs after the round's record_tick, so there the opening tick is
  // already in the ring and lands in the pre-context instead.
  const std::size_t pre = std::min(per->filled, config_.pre_context_ticks);
  for (std::size_t j = 0; j < pre; ++j) {
    const std::size_t idx =
        (per->head + config_.ring_ticks - pre + j) % config_.ring_ticks;
    open.ticks[j] = per->ring[idx];
  }
  open.pre_ticks = pre;
  per->capture_len = pre;
}

void FlightRecorder::episode_closed(const std::string& vm, double now,
                                    const char* outcome) {
  PerVm* per = find_vm(vm);
  if (per == nullptr || !per->capture_open) return;
  per->capture_open = false;
  if (bundles_.size() >= config_.max_bundles) {
    ++dropped_;
    return;
  }
  EpisodeBundle& open = per->open;
  open.t_close = now;
  open.outcome = outcome;
  // Copy every field but the ticks, then only the captured prefix: the
  // capture is pre-sized to max_bundle_ticks, and `open` keeps that
  // storage for the next episode. Not a cold path: a run closes up to
  // max_bundles bundles, and a seed-111 perfbench `observed` run closes
  // 8,003 over its 240 scenarios.
  std::vector<EvidenceTick> storage;
  storage.swap(open.ticks);
  bundles_.push_back(open);
  open.ticks.swap(storage);
  bundles_.back().ticks.assign(
      open.ticks.begin(),
      open.ticks.begin() + static_cast<std::ptrdiff_t>(per->capture_len));
}

void FlightRecorder::episode_suppressed(const std::string& vm) {
  PerVm* per = find_vm(vm);
  if (per == nullptr) return;
  per->capture_open = false;
}

void FlightRecorder::record_diagnosis(const std::string& vm, double t,
                                      const std::size_t* ranked,
                                      const double* impacts,
                                      std::size_t count) {
  PerVm* per = find_vm(vm);
  if (per == nullptr || !per->capture_open) return;
  DiagnosisEvidence& diagnosis = per->open.diagnosis;
  if (diagnosis.valid) return;  // first diagnosis wins, like the tracer
  diagnosis.valid = true;
  diagnosis.t = t;
  diagnosis.ranked.assign(ranked, ranked + count);
  diagnosis.impacts.assign(impacts, impacts + count);
}

void FlightRecorder::record_prevention(const std::string& vm,
                                       const PreventionEvidence& evidence) {
  PerVm* per = find_vm(vm);
  if (per == nullptr || !per->capture_open) return;
  per->open.preventions.push_back(evidence);
}

void FlightRecorder::annotate_counterfactual(const std::string& trace_id,
                                             const CounterfactualNote& note) {
  for (auto& bundle : bundles_) {
    if (bundle.trace_id == trace_id) {
      bundle.counterfactuals.push_back(note);
      return;
    }
  }
}

void FlightRecorder::finish() {
  inc(bundles_counter_, static_cast<double>(bundles_.size()));
  inc(dropped_counter_, static_cast<double>(dropped_));
  inc(ticks_counter_, static_cast<double>(ticks_recorded_));
  inc(truncated_counter_, static_cast<double>(truncated_ticks_));
  set(high_water_gauge_, static_cast<double>(ring_high_water_));
  if (dropped_ > 0)
    PREPARE_WARN("flight_recorder")
        << dropped_ << " episode capture(s) dropped (max_bundles="
        << config_.max_bundles << ")";
}

void FlightRecorder::write_evidence_jsonl(std::ostream& os,
                                          const std::string& run_id) const {
  // The per-attribute and per-horizon-step keys, built once per export
  // instead of once per field.
  std::size_t attributes = 0;
  std::size_t horizon_steps = 0;
  for (const auto& bundle : bundles_) {
    attributes = std::max(attributes, bundle.layout.attributes);
    horizon_steps = std::max(horizon_steps, bundle.layout.horizon_steps);
  }
  const auto attr_keys = numbered_keys("attr", 0, attributes);
  const auto raw_keys = numbered_keys("raw", 0, attributes);
  const auto bin_keys = numbered_keys("bin", 0, attributes);
  const auto mode_keys = numbered_keys("mode", 0, attributes);
  const auto impact_keys = numbered_keys("impact", 0, attributes);
  const auto modep_keys = numbered_keys("modep", 0, attributes);
  const auto hp_keys = numbered_keys("hp", 1, horizon_steps);
  for (const auto& bundle : bundles_) {
    const bool decomposable =
        !bundle.ticks.empty() && bundle.ticks.front().decomposable;
    {
      JsonObject record(os);
      record.field("record", "episode_evidence")
          .field("kind", "bundle")
          .field("run_id", run_id)
          .field("trace_id", bundle.trace_id)
          .field("vm", bundle.vm)
          .field("t_open", bundle.t_open)
          .field("t_close", bundle.t_close)
          .field("outcome", bundle.outcome)
          .field("ticks", static_cast<std::uint64_t>(bundle.ticks.size()))
          .field("pre_ticks", static_cast<std::uint64_t>(bundle.pre_ticks))
          .field("truncated_ticks",
                 static_cast<std::uint64_t>(bundle.truncated_ticks))
          .field("attributes",
                 static_cast<std::uint64_t>(bundle.layout.attributes))
          .field("filter_k",
                 static_cast<std::uint64_t>(bundle.decision.filter_k))
          .field("filter_w",
                 static_cast<std::uint64_t>(bundle.decision.filter_w))
          .field("alert_min_top_impact",
                 bundle.decision.alert_min_top_impact)
          .field("prevention_mode", bundle.decision.prevention_mode)
          .field("companion_scaling",
                 bundle.decision.companion_scaling ? 1 : 0)
          .field("lookahead_s", bundle.decision.lookahead_s)
          .field("sampling_interval_s", bundle.decision.sampling_interval_s)
          .field("decomposable", decomposable ? 1 : 0);
      for (std::size_t i = 0; i < bundle.layout.attributes; ++i)
        record.field(attr_keys[i], bundle.layout.attribute_names[i]);
    }
    for (std::size_t s = 0; s < bundle.ticks.size(); ++s) {
      const EvidenceTick& tick = bundle.ticks[s];
      JsonObject record(os);
      record.field("record", "episode_evidence")
          .field("kind", "tick")
          .field("run_id", run_id)
          .field("trace_id", bundle.trace_id)
          .field("vm", bundle.vm)
          .field("seq", static_cast<std::uint64_t>(s))
          .field("t", tick.t)
          .field("phase", s < bundle.pre_ticks ? "pre" : "episode")
          .field("abnormal", tick.abnormal ? 1 : 0)
          .field("raw_alert", tick.raw_alert ? 1 : 0)
          .field("confirmed", tick.confirmed ? 1 : 0)
          .field("score", tick.score)
          .field("prior", tick.prior_log_odds)
          .field("decomposable", tick.decomposable ? 1 : 0);
      for (std::size_t i = 0; i < bundle.layout.attributes; ++i) {
        record.field(raw_keys[i], tick.raw[i]);
        record.field(bin_keys[i],
                     static_cast<std::uint64_t>(tick.observed_row[i]));
        record.field(mode_keys[i],
                     static_cast<std::uint64_t>(tick.mode_row[i]));
        record.field(impact_keys[i], tick.impacts[i]);
        // The look-ahead distribution, compacted to the probability the
        // classified mode carried (the full distributions stay in the
        // in-memory bundle for replay).
        record.field(modep_keys[i],
                     tick.dists[bundle.layout.offsets[i] + tick.mode_row[i]]);
      }
      record.field("horizon_len",
                   static_cast<std::uint64_t>(tick.horizon_len));
      for (std::size_t h = 0; h < tick.horizon_len; ++h)
        record.field(hp_keys[h], tick.horizon_probs[h]);
    }
    if (bundle.diagnosis.valid) {
      JsonObject record(os);
      record.field("record", "episode_evidence")
          .field("kind", "diagnosis")
          .field("run_id", run_id)
          .field("trace_id", bundle.trace_id)
          .field("vm", bundle.vm)
          .field("t", bundle.diagnosis.t)
          .field("count",
                 static_cast<std::uint64_t>(bundle.diagnosis.ranked.size()));
      for (std::size_t r = 0; r < bundle.diagnosis.ranked.size(); ++r) {
        const std::string rank = std::to_string(r + 1);
        const std::size_t attr = bundle.diagnosis.ranked[r];
        record.field("rank" + rank + "_attr",
                     attr < bundle.layout.attribute_names.size()
                         ? bundle.layout.attribute_names[attr]
                         : "?");
        record.field("rank" + rank + "_impact", bundle.diagnosis.impacts[r]);
      }
    }
    for (const auto& prevention : bundle.preventions) {
      JsonObject record(os);
      record.field("record", "episode_evidence")
          .field("kind", "prevention")
          .field("run_id", run_id)
          .field("trace_id", bundle.trace_id)
          .field("vm", bundle.vm)
          .field("t", prevention.t)
          .field("phase", prevention_phase_name(prevention.phase))
          .field("attribute",
                 prevention.attribute < bundle.layout.attribute_names.size()
                     ? bundle.layout.attribute_names[prevention.attribute]
                     : "?")
          .field("metric_kind", metric_kind_name(prevention.metric_kind))
          .field("scale_possible", prevention.scale_possible ? 1 : 0)
          .field("migrate_possible", prevention.migrate_possible ? 1 : 0)
          .field("mode", bundle.decision.prevention_mode)
          .field("applied", applied_action_name(prevention.applied));
    }
    for (const auto& note : bundle.counterfactuals) {
      JsonObject record(os);
      record.field("record", "episode_evidence")
          .field("kind", "counterfactual")
          .field("run_id", run_id)
          .field("trace_id", bundle.trace_id)
          .field("vm", bundle.vm)
          .field("policy", note.policy)
          .field("compared", static_cast<std::uint64_t>(note.compared))
          .field("diverged", static_cast<std::uint64_t>(note.diverged))
          .field("detail", note.detail);
    }
  }
}

}  // namespace obs
}  // namespace prepare
