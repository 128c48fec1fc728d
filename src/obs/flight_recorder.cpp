#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
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

// A stored tick's slot. Its doubles are t, the score and the prior,
// then raw, impacts, dists and the horizon steps; its integers are the
// four flags and the horizon length, then observed_row and mode_row.
enum RealField : std::size_t { kT, kScore, kPrior, kRealHeader };
enum IndexField : std::size_t {
  kAbnormal,
  kRawAlert,
  kConfirmed,
  kDecomposable,
  kHorizonLen,
  kIndexHeader
};

/// Where the impacts, dists and horizon steps start in a slot's doubles.
std::size_t impacts_at(const EvidenceLayout& layout) {
  return kRealHeader + layout.attributes;
}
std::size_t dists_at(const EvidenceLayout& layout) {
  return kRealHeader + 2 * layout.attributes;
}
std::size_t horizon_at(const EvidenceLayout& layout) {
  return dists_at(layout) + layout.offsets.back();
}

/// Whether two stored values have the same bits: the export writes -0.0
/// and 0.0 differently, and must not tell NaNs apart by ==.
template <typename T>
bool same_bits(const T* a, const T* b, std::size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(T)) == 0;
}
template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

/// Whether a tick record would carry the same fields after `phase`.
bool same_tick(const EvidenceTick& a, const EvidenceTick& b) {
  return same_bits(&a.t, &b.t, 1) && a.abnormal == b.abnormal &&
         a.raw_alert == b.raw_alert && a.confirmed == b.confirmed &&
         a.decomposable == b.decomposable &&
         same_bits(&a.score, &b.score, 1) &&
         same_bits(&a.prior_log_odds, &b.prior_log_odds, 1) &&
         same_bits(a.raw, b.raw) && same_bits(a.observed_row, b.observed_row) &&
         same_bits(a.mode_row, b.mode_row) && same_bits(a.impacts, b.impacts) &&
         same_bits(a.dists, b.dists) &&
         same_bits(a.horizon_probs, b.horizon_probs);
}

/// A tick whose record fields after `phase` were written, and their bytes.
struct FormattedTick {
  const EvidenceTick* tick = nullptr;
  std::string fields;  ///< empty when the line was too long to read back
};

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

std::size_t FlightRecorder::register_vm(const std::string& vm,
                                        EvidenceLayout layout) {
  PREPARE_CHECK_MSG(slots_.count(vm) == 0, "VM registered twice: " + vm);
  PREPARE_CHECK(layout.attributes > 0);
  PREPARE_CHECK(layout.offsets.size() == layout.attributes + 1);
  PREPARE_CHECK(layout.attribute_names.size() == layout.attributes);
  PerVm per;
  per.name = vm;
  per.layout = std::move(layout);
  per.real_stride = horizon_at(per.layout) + per.layout.horizon_steps;
  per.index_stride = kIndexHeader + 2 * per.layout.attributes;
  // The open capture's slots follow the ring's in the same two blocks,
  // so an episode opening (and every capture append) stays
  // allocation-free.
  const std::size_t slots = config_.ring_ticks + config_.max_bundle_ticks;
  per.reals.resize(slots * per.real_stride);
  per.indices.resize(slots * per.index_stride);
  vms_.push_back(std::move(per));
  const std::size_t slot = vms_.size() - 1;
  slots_.emplace(vm, slot);
  return slot;
}

void FlightRecorder::copy_frame(const EvidenceFrame& frame, PerVm* vm,
                                std::size_t slot) const {
  const EvidenceLayout& layout = vm->layout;
  double* reals = &vm->reals[slot * vm->real_stride];
  std::size_t* indices = &vm->indices[slot * vm->index_stride];
  const std::size_t n = layout.attributes;
  reals[kT] = frame.t;
  reals[kScore] = frame.score;
  reals[kPrior] = frame.prior_log_odds;
  std::copy_n(frame.raw, n, reals + kRealHeader);
  std::copy_n(frame.impacts, n, reals + impacts_at(layout));
  std::copy_n(frame.dists, layout.offsets.back(), reals + dists_at(layout));
  PREPARE_DCHECK(frame.horizon_len <= layout.horizon_steps);
  if (frame.horizon_len > 0)
    std::copy_n(frame.horizon_probs, frame.horizon_len,
                reals + horizon_at(layout));
  indices[kAbnormal] = frame.abnormal;
  indices[kRawAlert] = frame.raw_alert;
  indices[kConfirmed] = frame.confirmed;
  indices[kDecomposable] = frame.decomposable;
  indices[kHorizonLen] = frame.horizon_len;
  std::copy_n(frame.observed_row, n, indices + kIndexHeader);
  std::copy_n(frame.mode_row, n, indices + kIndexHeader + n);
}

void FlightRecorder::copy_slot(PerVm* vm, std::size_t from,
                               std::size_t to) const {
  std::copy_n(&vm->reals[from * vm->real_stride], vm->real_stride,
              &vm->reals[to * vm->real_stride]);
  std::copy_n(&vm->indices[from * vm->index_stride], vm->index_stride,
              &vm->indices[to * vm->index_stride]);
}

EvidenceTick FlightRecorder::stored_tick(const PerVm& vm,
                                         std::size_t slot) const {
  const EvidenceLayout& layout = vm.layout;
  const double* reals = &vm.reals[slot * vm.real_stride];
  const std::size_t* indices = &vm.indices[slot * vm.index_stride];
  const std::size_t n = layout.attributes;
  EvidenceTick tick;
  tick.t = reals[kT];
  tick.abnormal = indices[kAbnormal] != 0;
  tick.raw_alert = indices[kRawAlert] != 0;
  tick.confirmed = indices[kConfirmed] != 0;
  tick.score = reals[kScore];
  tick.prior_log_odds = reals[kPrior];
  tick.decomposable = indices[kDecomposable] != 0;
  tick.raw.assign(reals + kRealHeader, reals + kRealHeader + n);
  tick.observed_row.assign(indices + kIndexHeader, indices + kIndexHeader + n);
  tick.mode_row.assign(indices + kIndexHeader + n,
                       indices + kIndexHeader + 2 * n);
  tick.impacts.assign(reals + impacts_at(layout),
                      reals + impacts_at(layout) + n);
  tick.dists.assign(reals + dists_at(layout), reals + horizon_at(layout));
  tick.horizon_probs.assign(reals + horizon_at(layout),
                            reals + horizon_at(layout) + indices[kHorizonLen]);
  return tick;
}

void FlightRecorder::record_tick(std::size_t slot,
                                 const EvidenceFrame& frame) {
  PREPARE_DCHECK(slot < vms_.size());
  PerVm& vm = vms_[slot];
  const std::size_t ring_slot = vm.head;
  copy_frame(frame, &vm, ring_slot);
  vm.head = (vm.head + 1) % config_.ring_ticks;
  if (vm.filled < config_.ring_ticks) ++vm.filled;
  if (vm.filled > ring_high_water_) ring_high_water_ = vm.filled;
  ++ticks_recorded_;
  if (!vm.capture_open) return;
  if (vm.capture_len < config_.max_bundle_ticks) {
    copy_slot(&vm, ring_slot, config_.ring_ticks + vm.capture_len);
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
  for (std::size_t j = 0; j < pre; ++j)
    copy_slot(per,
              (per->head + config_.ring_ticks - pre + j) % config_.ring_ticks,
              config_.ring_ticks + j);
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
  per->open.t_close = now;
  per->open.outcome = outcome;
  // The bundle takes the open episode's fields (episode_opened sets each
  // of them again) and the captured prefix of the slots. Not a cold
  // path: a run closes up to max_bundles bundles, and a seed-111
  // perfbench `observed` run closes 8,003 over its 240 scenarios.
  bundles_.push_back(std::move(per->open));
  std::vector<EvidenceTick>& ticks = bundles_.back().ticks;
  ticks.reserve(per->capture_len);
  for (std::size_t c = 0; c < per->capture_len; ++c)
    ticks.push_back(stored_tick(*per, config_.ring_ticks + c));
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
  // Back-to-back episodes share their pre-alert context, so a bundle
  // often repeats, tick for tick, the last ticks of its VM's previous
  // bundle. A tick record's fields after `phase` depend on the tick
  // alone, so a repeated tick writes the bytes of its first record
  // again. Per VM, `previous` keeps the last pre_context_ticks ticks of
  // the VM's last bundle: a bundle's ring context reaches no further
  // back.
  std::vector<std::vector<FormattedTick>> previous(vms_.size());
  std::vector<FormattedTick> kept;
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
    std::vector<FormattedTick>& earlier = previous[slots_.at(bundle.vm)];
    const std::size_t first_kept =
        bundle.ticks.size() -
        std::min(bundle.ticks.size(), config_.pre_context_ticks);
    kept.resize(bundle.ticks.size() - first_kept);
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
          .field("phase", s < bundle.pre_ticks ? "pre" : "episode");
      const auto same = std::find_if(
          earlier.begin(), earlier.end(), [&](const FormattedTick& e) {
            return !e.fields.empty() && same_tick(*e.tick, tick);
          });
      std::string_view fields;
      if (same != earlier.end()) {
        fields = same->fields;
        record.append_fields(fields);
      } else {
        const std::size_t mark = record.written();
        record.field("abnormal", tick.abnormal ? 1 : 0)
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
          // The look-ahead distribution, compacted to the probability
          // the classified mode carried (the full distributions stay in
          // the in-memory bundle for replay).
          record.field(
              modep_keys[i],
              tick.dists[bundle.layout.offsets[i] + tick.mode_row[i]]);
        }
        record.field("horizon_len",
                     static_cast<std::uint64_t>(tick.horizon_probs.size()));
        for (std::size_t h = 0; h < tick.horizon_probs.size(); ++h)
          record.field(hp_keys[h], tick.horizon_probs[h]);
        fields = record.written_since(mark);
      }
      if (s >= first_kept) {
        kept[s - first_kept].tick = &tick;
        kept[s - first_kept].fields.assign(fields);
      }
    }
    earlier.swap(kept);
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
