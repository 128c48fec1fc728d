#include "obs/model_introspect.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/logging.h"
#include "obs/json.h"

namespace prepare {
namespace obs {

namespace {

std::string bin_counter_name(std::size_t bin, const char* leaf) {
  return "model.calibration.reliability.bin" + std::to_string(bin) + "." +
         leaf;
}

}  // namespace

ModelIntrospect::ModelIntrospect(MetricsRegistry* metrics,
                                 IntrospectConfig config)
    : config_(config),
      metrics_(metrics),
      brier_gauge_(gauge(metrics, "model.calibration.brier")),
      logloss_gauge_(gauge(metrics, "model.calibration.logloss")),
      samples_counter_(counter(metrics, "model.calibration.samples_total")),
      hits_counter_(counter(metrics, "model.calibration.hits_total")),
      drift_brier_baseline_(gauge(metrics, "model.drift.brier_baseline")),
      drift_brier_recent_(gauge(metrics, "model.drift.brier_recent")),
      drift_brier_delta_(gauge(metrics, "model.drift.brier_delta")),
      drift_logloss_baseline_(gauge(metrics, "model.drift.logloss_baseline")),
      drift_logloss_recent_(gauge(metrics, "model.drift.logloss_recent")),
      drift_logloss_delta_(gauge(metrics, "model.drift.logloss_delta")),
      drift_occupancy_max_(gauge(metrics, "model.drift.occupancy_shift_max")),
      drift_occupancy_mean_(
          gauge(metrics, "model.drift.occupancy_shift_mean")),
      drift_triggered_(gauge(metrics, "model.drift.triggered")),
      drift_evaluations_(counter(metrics, "model.drift.evaluations_total")),
      drift_triggers_(counter(metrics, "model.drift.triggers_total")),
      drift_dropped_(counter(metrics, "model.drift.records_dropped_total")),
      markov_entropy_mean_(gauge(metrics, "model.markov.row_entropy.mean")),
      markov_entropy_max_(gauge(metrics, "model.markov.row_entropy.max")),
      markov_occupancy_(gauge(metrics, "model.markov.row_occupancy.ratio")),
      tan_support_min_(gauge(metrics, "model.tan.cpt_support.min")),
      tan_spread_(gauge(metrics, "model.tan.log_odds.spread")),
      probes_counter_(counter(metrics, "model.probe.runs_total")) {
  PREPARE_CHECK(config_.reliability_bins > 0)
      << "reliability histogram needs at least one bin";
  PREPARE_CHECK(config_.drift_window_rounds > 0)
      << "drift window must cover at least one round";
  PREPARE_CHECK(config_.drift_eval_period_rounds > 0)
      << "drift evaluation period must be positive";
  PREPARE_CHECK(config_.probe_period_rounds > 0)
      << "probe period must be positive";
  PREPARE_CHECK(config_.calibration_stride > 0)
      << "calibration stride must be positive";
  PREPARE_CHECK(config_.logloss_epsilon > 0.0 &&
                config_.logloss_epsilon < 0.5)
      << "log-loss clamp must be in (0, 0.5)";
  bin_n_counters_.resize(config_.reliability_bins, nullptr);
  bin_hits_counters_.resize(config_.reliability_bins, nullptr);
  for (std::size_t b = 0; b < config_.reliability_bins; ++b) {
    bin_n_counters_[b] = counter(metrics, bin_counter_name(b, "n"));
    bin_hits_counters_[b] = counter(metrics, bin_counter_name(b, "hits"));
  }
}

void ModelIntrospect::set_horizon(std::size_t steps,
                                  double sampling_interval_s) {
  PREPARE_CHECK(steps > 0) << "look-ahead horizon must be at least one step";
  PREPARE_CHECK(sampling_interval_s > 0.0)
      << "sampling interval must be positive";
  horizon_steps_ = steps;
  sampling_interval_s_ = sampling_interval_s;
  // A (re)configured horizon starts a fresh calibration ledger: pending
  // predictions made under the old geometry can no longer resolve.
  ring_.assign(steps, {});
  ring_round_.assign(steps, kNoRound);
  horizons_.assign(steps, HorizonStats());
  for (HorizonStats& h : horizons_) {
    h.bin_n.assign(config_.reliability_bins, 0);
    h.bin_hits.assign(config_.reliability_bins, 0);
  }
  round_ = 0;
  round_open_ = false;
  total_n_ = 0;
  total_hits_ = 0;
  total_brier_sum_ = 0.0;
  total_logloss_sum_ = 0.0;
  window_.clear();
}

void ModelIntrospect::set_attribute_names(std::vector<std::string> names) {
  attribute_names_ = std::move(names);
  probe_gauges_.clear();
}

void ModelIntrospect::add_baseline_occupancy(
    std::size_t attribute, const std::vector<double>& bin_counts) {
  if (attribute >= occupancy_.size()) occupancy_.resize(attribute + 1);
  OccupancyState& state = occupancy_[attribute];
  if (state.baseline.size() < bin_counts.size()) {
    state.baseline.resize(bin_counts.size(), 0.0);
  }
  for (std::size_t b = 0; b < bin_counts.size(); ++b) {
    PREPARE_DCHECK_GE(bin_counts[b], 0.0)
        << "negative training bin count for attribute " << attribute;
    state.baseline[b] += bin_counts[b];
  }
}

void ModelIntrospect::record_discretizer(std::size_t attribute,
                                         std::size_t bins,
                                         double fit_occupied_ratio) {
  if (metrics_ == nullptr) return;
  const std::string name = attribute < attribute_names_.size()
                               ? attribute_names_[attribute]
                               : "attr" + std::to_string(attribute);
  set(gauge(metrics_, "model.discretizer." + name + ".bins"),
      static_cast<double>(bins));
  set(gauge(metrics_, "model.discretizer." + name + ".fit_occupied_ratio"),
      fit_occupied_ratio);
}

void ModelIntrospect::fold(std::size_t horizon_index, double p, bool hit,
                           RoundWindowEntry* entry) {
  PREPARE_DCHECK(std::isfinite(p))
      << "non-finite predicted probability at horizon step "
      << (horizon_index + 1);
  PREPARE_DCHECK_GE(p, 0.0) << "predicted probability below 0";
  PREPARE_DCHECK_LE(p, 1.0) << "predicted probability above 1";
  const double y = hit ? 1.0 : 0.0;
  const double brier = (p - y) * (p - y);
  const double clamped = std::min(std::max(p, config_.logloss_epsilon),
                                  1.0 - config_.logloss_epsilon);
  const double logloss = hit ? -std::log(clamped) : -std::log(1.0 - clamped);
  const std::size_t bins = config_.reliability_bins;
  const std::size_t bin = std::min(
      bins - 1, static_cast<std::size_t>(p * static_cast<double>(bins)));

  HorizonStats& h = horizons_[horizon_index];
  ++h.n;
  if (hit) ++h.hits;
  h.p_sum += p;
  h.brier_sum += brier;
  h.logloss_sum += logloss;
  ++h.bin_n[bin];
  if (hit) ++h.bin_hits[bin];

  ++total_n_;
  if (hit) ++total_hits_;
  total_brier_sum_ += brier;
  total_logloss_sum_ += logloss;

  entry->brier_sum += brier;
  entry->logloss_sum += logloss;
  ++entry->n;

  inc(samples_counter_);
  if (hit) inc(hits_counter_);
  inc(bin_n_counters_[bin]);
  if (hit) inc(bin_hits_counters_[bin]);
}

void ModelIntrospect::begin_round(double now, bool slo_violated) {
  PREPARE_CHECK(horizon_steps_ > 0)
      << "set_horizon() must be called before the first round";
  const std::size_t k = horizon_steps_;
  const std::size_t r = round_;

  // Resolve every pending prediction targeting this round: a path
  // recorded at round r0 targets rounds r0+1 .. r0+k, so round r is the
  // (r - r0)-th horizon step of slot r0. Oldest source round first —
  // the fold order is fixed, so the floating accumulators are
  // bit-identical on every run.
  RoundWindowEntry entry;
  const std::size_t depth = std::min(k, r);
  for (std::size_t h = depth; h >= 1; --h) {
    const std::size_t source = r - h;
    const std::size_t slot = source % k;
    if (ring_round_[slot] != source) continue;
    const std::vector<double>& probs = ring_[slot];
    PREPARE_DCHECK_EQ(probs.size() % k, 0u)
        << "ragged horizon-probability block in calibration ring";
    for (std::size_t base = 0; base + k <= probs.size(); base += k) {
      fold(h - 1, probs[base + h - 1], slo_violated, &entry);
    }
  }
  if (entry.n > 0) {
    window_.push_back(entry);
    while (window_.size() > config_.drift_window_rounds) {
      window_.pop_front();
    }
    // Nothing folded means the pooled ratios are unchanged, so rounds
    // that resolved no predictions skip the republish entirely.
    publish_pooled_gauges();
  }

  // Open this round's prediction slot (recycling the slot whose last
  // horizon step just resolved).
  const std::size_t slot = r % k;
  ring_[slot].clear();
  ring_round_[slot] = r;
  round_open_ = true;
  last_round_time_ = now;
  ++round_;

  if (round_ % config_.drift_eval_period_rounds == 0 &&
      total_n_ >= config_.drift_min_samples) {
    evaluate_drift(now);
  }
}

bool ModelIntrospect::calibration_due() const {
  // begin_round() already advanced round_, so the open round is
  // round_ - 1; the stride is anchored at the first round after
  // set_horizon().
  return round_open_ && (round_ - 1) % config_.calibration_stride == 0;
}

void ModelIntrospect::record_horizon_probs(const std::vector<double>& probs) {
  PREPARE_CHECK(round_open_)
      << "record_horizon_probs() outside an open round";
  PREPARE_CHECK_EQ(probs.size(), horizon_steps_)
      << "horizon-probability path length does not match the configured "
         "look-ahead depth";
  const std::size_t slot = (round_ - 1) % horizon_steps_;
  std::vector<double>& dst = ring_[slot];
  dst.insert(dst.end(), probs.begin(), probs.end());
}

void ModelIntrospect::observe_symbol(std::size_t attribute,
                                     std::size_t symbol) {
  if (attribute >= occupancy_.size()) occupancy_.resize(attribute + 1);
  OccupancyState& state = occupancy_[attribute];
  if (symbol >= state.recent_counts.size()) {
    state.recent_counts.resize(symbol + 1, 0.0);
  }
  state.recent_counts[symbol] += 1.0;
  if (state.recent_size < config_.occupancy_window) {
    state.recent_ring.push_back(static_cast<std::uint32_t>(symbol));
    ++state.recent_size;
  } else {
    // Window is full: the head slot holds the oldest symbol; evict it
    // and write the new one in place.
    const std::size_t old = state.recent_ring[state.recent_head];
    PREPARE_DCHECK_LT(old, state.recent_counts.size())
        << "occupancy window symbol escaped the count vector";
    state.recent_counts[old] -= 1.0;
    state.recent_ring[state.recent_head] = static_cast<std::uint32_t>(symbol);
    state.recent_head = (state.recent_head + 1) % config_.occupancy_window;
  }
}

bool ModelIntrospect::probe_due() const {
  return horizon_steps_ > 0 && round_ > 0 &&
         round_ % config_.probe_period_rounds == 0;
}

void ModelIntrospect::begin_probe(double now) {
  probe_markov_.assign(
      std::max(attribute_names_.size(), occupancy_.size()), ProbeAccum());
  probe_cpt_support_min_ = 0.0;
  probe_log_odds_spread_max_ = 0.0;
  probe_classifiers_ = 0;
  probe_time_ = now;
}

void ModelIntrospect::probe_markov(std::size_t attribute, double entropy_mean,
                                   double entropy_max,
                                   double occupancy_ratio) {
  PREPARE_DCHECK(std::isfinite(entropy_mean) && std::isfinite(entropy_max) &&
                 std::isfinite(occupancy_ratio))
      << "non-finite Markov probe for attribute " << attribute;
  if (attribute >= probe_markov_.size()) {
    probe_markov_.resize(attribute + 1);
  }
  ProbeAccum& accum = probe_markov_[attribute];
  accum.entropy_sum += entropy_mean;
  accum.entropy_max = std::max(accum.entropy_max, entropy_max);
  accum.occupancy_sum += occupancy_ratio;
  ++accum.samples;
}

void ModelIntrospect::probe_classifier(double cpt_support_min,
                                       double log_odds_spread) {
  PREPARE_DCHECK(std::isfinite(cpt_support_min) &&
                 std::isfinite(log_odds_spread))
      << "non-finite classifier probe";
  if (probe_classifiers_ == 0) {
    probe_cpt_support_min_ = cpt_support_min;
  } else {
    probe_cpt_support_min_ =
        std::min(probe_cpt_support_min_, cpt_support_min);
  }
  probe_log_odds_spread_max_ =
      std::max(probe_log_odds_spread_max_, log_odds_spread);
  ++probe_classifiers_;
}

void ModelIntrospect::end_probe() {
  double entropy_sum = 0.0;
  double entropy_max = 0.0;
  double occupancy_sum = 0.0;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < probe_markov_.size(); ++i) {
    const ProbeAccum& accum = probe_markov_[i];
    if (accum.samples == 0) continue;
    entropy_sum += accum.entropy_sum;
    entropy_max = std::max(entropy_max, accum.entropy_max);
    occupancy_sum += accum.occupancy_sum;
    samples += accum.samples;
    if (metrics_ != nullptr) {
      if (i >= probe_gauges_.size()) probe_gauges_.resize(i + 1);
      ProbeGauges& gauges = probe_gauges_[i];
      if (gauges.row_entropy == nullptr) {
        const std::string name = i < attribute_names_.size()
                                     ? attribute_names_[i]
                                     : "attr" + std::to_string(i);
        gauges.row_entropy =
            gauge(metrics_, "model.markov." + name + ".row_entropy");
        gauges.row_occupancy =
            gauge(metrics_, "model.markov." + name + ".row_occupancy");
      }
      const double denom = static_cast<double>(accum.samples);
      set(gauges.row_entropy, accum.entropy_sum / denom);
      set(gauges.row_occupancy, accum.occupancy_sum / denom);
    }
  }
  if (samples > 0) {
    const double denom = static_cast<double>(samples);
    set(markov_entropy_mean_, entropy_sum / denom);
    set(markov_entropy_max_, entropy_max);
    set(markov_occupancy_, occupancy_sum / denom);
  }
  if (probe_classifiers_ > 0) {
    set(tan_support_min_, probe_cpt_support_min_);
    set(tan_spread_, probe_log_odds_spread_max_);
  }
  inc(probes_counter_);
}

double ModelIntrospect::tv_distance(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (double v : a) sum_a += v;
  for (double v : b) sum_b += v;
  if (sum_a <= 0.0 || sum_b <= 0.0) return 0.0;
  const std::size_t n = std::max(a.size(), b.size());
  double tv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pa = i < a.size() ? a[i] / sum_a : 0.0;
    const double pb = i < b.size() ? b[i] / sum_b : 0.0;
    tv += std::fabs(pa - pb);
  }
  return 0.5 * tv;
}

void ModelIntrospect::evaluate_drift(double now) {
  inc(drift_evaluations_);

  // Calibration drift: recent-window means vs. lifetime baseline.
  double recent_brier_sum = 0.0;
  double recent_logloss_sum = 0.0;
  std::uint64_t recent_n = 0;
  for (const RoundWindowEntry& entry : window_) {
    recent_brier_sum += entry.brier_sum;
    recent_logloss_sum += entry.logloss_sum;
    recent_n += entry.n;
  }
  PREPARE_DCHECK_GT(total_n_, 0u) << "drift evaluation before any sample";
  const double total = static_cast<double>(total_n_);
  const double baseline_brier = total_brier_sum_ / total;
  const double baseline_logloss = total_logloss_sum_ / total;
  double recent_brier = baseline_brier;
  double recent_logloss = baseline_logloss;
  if (recent_n > 0) {
    const double recent = static_cast<double>(recent_n);
    recent_brier = recent_brier_sum / recent;
    recent_logloss = recent_logloss_sum / recent;
  }
  const bool cal_triggered =
      recent_n > 0 &&
      recent_brier > baseline_brier * (1.0 + config_.drift_brier_rel_threshold) +
                         config_.drift_brier_abs_floor;

  set(drift_brier_baseline_, baseline_brier);
  set(drift_brier_recent_, recent_brier);
  set(drift_brier_delta_, recent_brier - baseline_brier);
  set(drift_logloss_baseline_, baseline_logloss);
  set(drift_logloss_recent_, recent_logloss);
  set(drift_logloss_delta_, recent_logloss - baseline_logloss);
  if (cal_triggered) inc(drift_triggers_);

  DriftRecord cal;
  cal.t = now;
  cal.kind = "calibration";
  cal.triggered = cal_triggered;
  cal.values = {
      {"brier_baseline", baseline_brier},
      {"brier_recent", recent_brier},
      {"brier_delta", recent_brier - baseline_brier},
      {"logloss_baseline", baseline_logloss},
      {"logloss_recent", recent_logloss},
      {"logloss_delta", recent_logloss - baseline_logloss},
      {"baseline_n", total},
      {"recent_n", static_cast<double>(recent_n)},
      {"window_rounds", static_cast<double>(window_.size())},
  };
  push_drift_record(std::move(cal));

  // Occupancy drift: per-attribute total-variation distance between the
  // training-time bin distribution and the recent runtime window.
  double shift_max = -1.0;
  double shift_sum = 0.0;
  std::size_t evaluated = 0;
  std::size_t top = 0;
  for (std::size_t i = 0; i < occupancy_.size(); ++i) {
    const OccupancyState& state = occupancy_[i];
    if (state.baseline.empty() || state.recent_size == 0) continue;
    const double tv = tv_distance(state.baseline, state.recent_counts);
    ++evaluated;
    shift_sum += tv;
    if (tv > shift_max) {
      shift_max = tv;
      top = i;
    }
  }
  bool occ_triggered = false;
  if (evaluated > 0) {
    occ_triggered = shift_max > config_.occupancy_shift_threshold;
    const double shift_mean = shift_sum / static_cast<double>(evaluated);
    set(drift_occupancy_max_, shift_max);
    set(drift_occupancy_mean_, shift_mean);
    if (occ_triggered) inc(drift_triggers_);

    DriftRecord occ;
    occ.t = now;
    occ.kind = "occupancy";
    occ.triggered = occ_triggered;
    occ.attribute = top < attribute_names_.size()
                        ? attribute_names_[top]
                        : "attr" + std::to_string(top);
    occ.values = {
        {"shift_max", shift_max},
        {"shift_mean", shift_mean},
        {"attributes", static_cast<double>(evaluated)},
        {"window_symbols",
         static_cast<double>(occupancy_[top].recent_size)},
    };
    push_drift_record(std::move(occ));
  }
  set(drift_triggered_, (cal_triggered || occ_triggered) ? 1.0 : 0.0);
}

void ModelIntrospect::push_drift_record(DriftRecord record) {
  if (drift_.size() >= config_.max_drift_records) {
    inc(drift_dropped_);
    if (!warned_dropped_) {
      warned_dropped_ = true;
      PREPARE_WARN("model_introspect")
          << "drift record capacity (" << config_.max_drift_records
          << ") reached at t=" << record.t
          << ": further model_drift records are dropped from the trace";
    }
    return;
  }
  drift_.push_back(std::move(record));
}

void ModelIntrospect::publish_pooled_gauges() {
  if (total_n_ == 0) return;
  const double total = static_cast<double>(total_n_);
  set(brier_gauge_, total_brier_sum_ / total);
  set(logloss_gauge_, total_logloss_sum_ / total);
}

void ModelIntrospect::finish(double now) {
  if (finished_) return;
  finished_ = true;
  finish_time_ = now;
  round_open_ = false;
  // Predictions whose target round lies past the run end never realize
  // an outcome; they are discarded with the ring.
  publish_pooled_gauges();
  if (total_n_ >= config_.drift_min_samples) {
    evaluate_drift(now);
  }
  if (metrics_ != nullptr) {
    for (std::size_t s = 0; s < horizons_.size(); ++s) {
      const HorizonStats& h = horizons_[s];
      if (h.n == 0) continue;
      const double n = static_cast<double>(h.n);
      const std::string prefix =
          "model.calibration.h" + std::to_string(s + 1);
      set(gauge(metrics_, prefix + ".brier"), h.brier_sum / n);
      set(gauge(metrics_, prefix + ".logloss"), h.logloss_sum / n);
    }
  }
}

void ModelIntrospect::write_introspection_jsonl(
    std::ostream& os, const std::string& run_id) const {
  for (std::size_t s = 0; s < horizons_.size(); ++s) {
    const HorizonStats& h = horizons_[s];
    if (h.n == 0) continue;
    const double n = static_cast<double>(h.n);
    JsonObject record(os);
    record.field("record", "calibration")
        .field("run_id", run_id)
        .field("t", finish_time_)
        .field("horizon_step", static_cast<std::uint64_t>(s + 1))
        .field("horizon_s",
               static_cast<double>(s + 1) * sampling_interval_s_)
        .field("n", static_cast<std::uint64_t>(h.n))
        .field("hits", static_cast<std::uint64_t>(h.hits))
        .field("p_mean", h.p_sum / n)
        .field("brier", h.brier_sum / n)
        .field("logloss", h.logloss_sum / n);
    for (std::size_t b = 0; b < h.bin_n.size(); ++b) {
      const std::string key = "bin" + std::to_string(b);
      record.field(key + "_n", static_cast<std::uint64_t>(h.bin_n[b]));
      record.field(key + "_hits",
                   static_cast<std::uint64_t>(h.bin_hits[b]));
    }
  }
  for (const DriftRecord& drift : drift_) {
    JsonObject record(os);
    record.field("record", "model_drift")
        .field("run_id", run_id)
        .field("t", drift.t)
        .field("kind", drift.kind)
        .field("triggered", drift.triggered ? 1 : 0);
    if (!drift.attribute.empty()) {
      record.field("attribute", drift.attribute);
    }
    for (const std::pair<std::string, double>& value : drift.values) {
      record.field(value.first, value.second);
    }
  }
}

void ModelIntrospect::write_summary(std::ostream& os) const {
  char buf[256];
  os << "model calibration (per look-ahead horizon step):\n";
  if (total_n_ == 0) {
    os << "  (no resolved predictions)\n";
  } else {
    std::snprintf(buf, sizeof(buf), "  %5s %10s %8s %9s %8s %9s %9s\n",
                  "step", "horizon_s", "n", "hit_rate", "p_mean", "brier",
                  "logloss");
    os << buf;
    for (std::size_t s = 0; s < horizons_.size(); ++s) {
      const HorizonStats& h = horizons_[s];
      if (h.n == 0) continue;
      const double n = static_cast<double>(h.n);
      std::snprintf(buf, sizeof(buf),
                    "  %5zu %10.1f %8llu %9.4f %8.4f %9.5f %9.5f\n", s + 1,
                    static_cast<double>(s + 1) * sampling_interval_s_,
                    static_cast<unsigned long long>(h.n),
                    static_cast<double>(h.hits) / n, h.p_sum / n,
                    h.brier_sum / n, h.logloss_sum / n);
      os << buf;
    }
    const double total = static_cast<double>(total_n_);
    std::snprintf(buf, sizeof(buf),
                  "  pooled: n=%llu hit_rate=%.4f brier=%.5f logloss=%.5f\n",
                  static_cast<unsigned long long>(total_n_),
                  static_cast<double>(total_hits_) / total,
                  total_brier_sum_ / total, total_logloss_sum_ / total);
    os << buf;

    os << "reliability (pooled across horizons):\n";
    const std::size_t bins = config_.reliability_bins;
    for (std::size_t b = 0; b < bins; ++b) {
      std::uint64_t bn = 0;
      std::uint64_t bh = 0;
      for (const HorizonStats& h : horizons_) {
        bn += h.bin_n[b];
        bh += h.bin_hits[b];
      }
      if (bn == 0) continue;
      const double lo = static_cast<double>(b) / static_cast<double>(bins);
      const double hi =
          static_cast<double>(b + 1) / static_cast<double>(bins);
      std::snprintf(buf, sizeof(buf),
                    "  p in [%.2f,%.2f%c  n=%-8llu hit_rate=%.4f\n", lo, hi,
                    b + 1 == bins ? ']' : ')',
                    static_cast<unsigned long long>(bn),
                    static_cast<double>(bh) / static_cast<double>(bn));
      os << buf;
    }
  }

  std::size_t triggered = 0;
  for (const DriftRecord& drift : drift_) {
    if (drift.triggered) ++triggered;
  }
  std::snprintf(buf, sizeof(buf),
                "model drift: %zu evaluation records, %zu triggered\n",
                drift_.size(), triggered);
  os << buf;
  for (const DriftRecord& drift : drift_) {
    if (!drift.triggered) continue;
    std::snprintf(buf, sizeof(buf), "  t=%.1f %s drift", drift.t,
                  drift.kind.c_str());
    os << buf;
    if (!drift.attribute.empty()) os << " (top: " << drift.attribute << ")";
    for (const std::pair<std::string, double>& value : drift.values) {
      if (value.first == "brier_recent" || value.first == "shift_max") {
        std::snprintf(buf, sizeof(buf), " %s=%.4f", value.first.c_str(),
                      value.second);
        os << buf;
      }
    }
    os << "\n";
  }
}

}  // namespace obs
}  // namespace prepare
