#include "core/anomaly_predictor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "models/outlier.h"
#include "models/tan.h"

namespace prepare {

AnomalyPredictor::AnomalyPredictor(std::vector<std::string> feature_names,
                                   PredictorConfig config, bool look_ahead)
    : names_(std::move(feature_names)),
      config_(config),
      look_ahead_(look_ahead) {
  PREPARE_CHECK_MSG(!names_.empty(), "predictor needs at least one feature");
  PREPARE_CHECK(config_.bins >= 2);
}

void AnomalyPredictor::train(std::span<const std::vector<double>> columns,
                             const std::vector<bool>& abnormal) {
  const std::size_t n = names_.size();
  PREPARE_CHECK_EQ(columns.size(), n) << "one training column per feature";
  PREPARE_CHECK_MSG(!abnormal.empty(), "empty training set");
  for (std::size_t i = 0; i < n; ++i)
    PREPARE_CHECK_EQ(columns[i].size(), abnormal.size())
        << "training column " << i << " does not align with the labels";

  // Fit one discretizer per feature, discretizing its column in the same
  // sweep. With fit_on_normal the bin range comes from normal-labeled
  // samples only (anomaly extremes clamp to the edge bins); every sample
  // still trains the value predictors.
  const bool any_normal =
      std::find(abnormal.begin(), abnormal.end(), false) != abnormal.end();
  const std::vector<bool>* exclude =
      config_.fit_on_normal && any_normal ? &abnormal : nullptr;
  discretizers_.assign(
      n, Discretizer(config_.bins, config_.discretizer, 0.05,
                     config_.guard_bins));
  LabeledDataset data;
  data.alphabet.resize(n);
  std::vector<std::vector<std::size_t>> sequences(n);
  for (std::size_t i = 0; i < n; ++i) {
    discretizers_[i].fit(columns[i], exclude, &sequences[i]);
    data.alphabet[i] = discretizers_[i].bins();
  }
  if (introspect_ != nullptr) {
    // Training-time bin occupancy is the drift detector's baseline; the
    // discretizer-geometry gauges expose how much of each grid the
    // training data actually used.
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double>& fit_counts = discretizers_[i].fit_counts();
      introspect_->add_baseline_occupancy(i, fit_counts);
      double occupied = 0.0;
      for (double c : fit_counts)
        if (c > 0.0) occupied += 1.0;
      introspect_->record_discretizer(
          i, discretizers_[i].bins(),
          occupied / static_cast<double>(fit_counts.size()));
    }
  }

  // Train the value predictors on the discretized sequences. Alphabets
  // are per-feature: quantile discretization merges ties.
  if (look_ahead_)
    bank_.emplace(config_.markov_order, data.alphabet, config_.markov_alpha,
                  sequences);

  // Train the classifier on the same discretized rows + labels.
  data.rows.resize(abnormal.size());
  for (std::size_t r = 0; r < abnormal.size(); ++r) {
    data.rows[r].resize(n);
    for (std::size_t i = 0; i < n; ++i) data.rows[r][i] = sequences[i][r];
  }
  data.abnormal = abnormal;
  switch (config_.classifier) {
    case ClassifierKind::kNaiveBayes:
      classifier_ = std::make_unique<TanClassifier>(config_.classifier_alpha,
                                                    /*tree=*/false);
      break;
    case ClassifierKind::kOutlier:
      classifier_ = std::make_unique<OutlierClassifier>(
          config_.outlier_quantile, config_.classifier_alpha,
          config_.outlier_threshold_margin);
      break;
    case ClassifierKind::kTan:
      classifier_ =
          std::make_unique<TanClassifier>(config_.classifier_alpha);
      break;
  }
  classifier_->train(data);

  // A supervised classifier that never saw an abnormal sample cannot
  // claim one: with an empty abnormal class, Laplace smoothing turns the
  // abnormal likelihood into a uniform distribution and the classifier
  // silently degenerates into an outlier detector. Suppress its alarms —
  // this IS the paper's "recurrent anomalies only" limitation; use
  // ClassifierKind::kOutlier for deliberate unsupervised detection.
  supervised_without_abnormal_ =
      config_.classifier != ClassifierKind::kOutlier &&
      std::find(abnormal.begin(), abnormal.end(), true) == abnormal.end();

  // Discriminativeness: how much of its own abnormal training data does
  // the classifier recover? A model that cannot separate the classes it
  // was trained on has nothing to say about the future either.
  std::size_t ab_total = 0, ab_hit = 0;
  Classification cls;
  for (std::size_t r = 0; r < data.rows.size(); ++r) {
    if (!data.abnormal[r]) continue;
    ++ab_total;
    classifier_->classify_into(data.rows[r], &cls);
    if (cls.abnormal) ++ab_hit;
  }
  train_tpr_ = ab_total == 0
                   ? 1.0
                   : static_cast<double>(ab_hit) /
                         static_cast<double>(ab_total);
  discriminative_ = train_tpr_ >= config_.min_train_tpr;

  // Training ends with predictors contextualized at the end of the
  // training sequence; runtime observe() calls take over from there.
  last_row_ = data.rows.back();
  has_observation_ = true;
  trained_ = true;

  // Pre-size the per-predict scratch that only depends on the feature
  // count, so the hot predict path never grows it (the analyzer proves
  // predict_into allocation-free; see analyze_annotations.h).
  scratch_dists_.resize(n);
  scratch_mode_row_.resize(n);
  scratch_row_.resize(n);

  // Flattened-evidence layout for the flight recorder: per-feature
  // effective alphabets are only known after discretizer fitting.
  evidence_offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    evidence_offsets_[i + 1] = evidence_offsets_[i] + discretizers_[i].bins();
}

std::size_t AnomalyPredictor::attribute_alphabet(std::size_t i) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(i < discretizers_.size());
  return discretizers_[i].bins();
}

void AnomalyPredictor::set_metrics(obs::MetricsRegistry* registry) {
  stage_discretize_ = obs::stage_histogram(registry, obs::kStageDiscretize);
  stage_lookahead_ = obs::stage_histogram(registry, obs::kStageMarkovLookahead);
  stage_classify_ = obs::stage_histogram(registry, obs::kStageTanClassify);
}

void AnomalyPredictor::set_introspect(obs::ModelIntrospect* introspect) {
  introspect_ = introspect;
}

void AnomalyPredictor::report_model_state() const {
  if (introspect_ == nullptr || !trained_) return;
  // A predictor without look-ahead has no transition rows to report.
  const std::size_t markov_attributes = bank_ ? bank_->attributes() : 0;
  for (std::size_t i = 0; i < markov_attributes; ++i) {
    const MarkovBank::RowStats stats = bank_->row_stats(i);
    const double occupied = static_cast<double>(stats.occupied_rows);
    introspect_->probe_markov(
        i,
        stats.occupied_rows == 0 ? 0.0 : stats.entropy_sum / occupied,
        stats.entropy_max,
        occupied / static_cast<double>(stats.rows));
  }
  const Classifier::CptStats cpt = classifier_->cpt_stats();
  introspect_->probe_classifier(cpt.support_min, cpt.log_odds_spread);
}

void AnomalyPredictor::observe(std::span<const double> row) {
  PREPARE_CHECK_MSG(trained_, "observe() before train()");
  PREPARE_CHECK(row.size() == names_.size());
  obs::ScopedTimer timer(stage_discretize_);
  last_row_.resize(row.size());
  if (capture_evidence_) last_raw_row_.assign(row.begin(), row.end());
  for (std::size_t i = 0; i < row.size(); ++i)
    last_row_[i] = discretizers_[i].discretize(row[i]);
  if (bank_) bank_->observe(last_row_, config_.online_learning);
  if (introspect_ != nullptr) {
    // observe() runs in the controller's serial per-VM loop (driver
    // thread), so feeding the driver-confined introspector here is safe.
    for (std::size_t i = 0; i < last_row_.size(); ++i)
      introspect_->observe_symbol(i, last_row_[i]);
  }
  has_observation_ = true;
}

bool AnomalyPredictor::ready() const {
  return trained_ && has_observation_ && bank_ && bank_->ready();
}

AnomalyPredictor::Result AnomalyPredictor::predict(TickIndex steps) const {
  // Cold wrapper: tests and one-shot callers get a fresh Result with the
  // predicted values; the controller's per-round loop calls
  // predict_into() with a reused Result instead.
  Result out;
  predict_into(steps, /*with_horizon=*/true, &out);
  out.predicted_values.resize(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i)
    out.predicted_values[i] =
        scratch_dists_[i].expectation(discretizers_[i].centers());
  return out;
}

void AnomalyPredictor::predict_into(TickIndex steps, bool with_horizon,
                                    Result* out) const {
  PREPARE_CHECK_MSG(ready(), "predict() before the model is ready");
  PREPARE_CHECK(steps.value() >= 1);
  PREPARE_CHECK(out != nullptr);
  // With an introspector attached, the look-ahead also writes the mode
  // row of every horizon step; the final distributions are the same
  // either way, so the classification (and thus every alert) is
  // unchanged.
  const bool horizon = introspect_ != nullptr && with_horizon;
  // Scratch vectors are pre-sized by train() (feature count is fixed).
  auto& dists = scratch_dists_;
  {
    obs::ScopedTimer timer(stage_lookahead_);
    bank_->predict_into(steps, &dists, &scratch_mode_row_,
                        horizon ? &scratch_modes_ : nullptr);
  }

  obs::ScopedTimer classify_timer(stage_classify_);
  auto& row = scratch_row_;
  const std::size_t nf = dists.size();
  if (config_.classify_mode)
    classifier_->classify_into(scratch_mode_row_, &out->classification);
  else
    classifier_->classify_expected_into(dists, &out->classification);
  if (horizon) {
    // Calibration probabilities: sigmoid of the mode-row log-odds score
    // at every horizon step. Always mode-row scoring — even under
    // classify_expected — so the per-horizon numbers compare one fixed
    // scoring rule across backends and horizons.
    const std::size_t k = steps.value();
    // prepare-analyze: allow(hot-alloc): capacity-steady — horizon fixed
    out->horizon_probs.resize(k);
    for (std::size_t s = 0; s < k; ++s) {
      std::copy_n(scratch_modes_.begin() + static_cast<std::ptrdiff_t>(s * nf),
                  nf, row.begin());
      const double score = classifier_->score(row).value();
      const double p = 1.0 / (1.0 + std::exp(-score));
      PREPARE_DCHECK(std::isfinite(p) && p >= 0.0 && p <= 1.0)
          << "degenerate anomaly probability " << p << " at horizon step "
          << s + 1;
      out->horizon_probs[s] = p;
    }
  } else {
    // A reused Result may carry probabilities from an earlier
    // calibration round; this round has none.
    out->horizon_probs.clear();
  }
  classify_timer.stop();
  if (supervised_without_abnormal_) out->classification.abnormal = false;
  // A Result reused from predict() drops its values: only predict()
  // computes them.
  out->predicted_values.clear();
  out->evidence.valid = false;
  if (capture_evidence_) capture_evidence_into(out);
}

void AnomalyPredictor::capture_evidence_into(Result* out) const {
  const std::size_t n = names_.size();
  auto& ev = out->evidence;
  ev.valid = true;
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  ev.raw.resize(n);
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  ev.observed_row.resize(n);
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  ev.mode_row.resize(n);
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  ev.dists.resize(evidence_offsets_.back());
  PREPARE_DCHECK(last_raw_row_.size() == n)
      << "evidence capture needs observe() after set_evidence_capture";
  std::copy(last_raw_row_.begin(), last_raw_row_.end(), ev.raw.begin());
  std::copy(last_row_.begin(), last_row_.end(), ev.observed_row.begin());
  std::copy(scratch_mode_row_.begin(), scratch_mode_row_.end(),
            ev.mode_row.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const Distribution& d = scratch_dists_[i];
    PREPARE_DCHECK(d.size() == evidence_offsets_[i + 1] - evidence_offsets_[i]);
    std::copy(d.probabilities().begin(), d.probabilities().end(),
              ev.dists.begin() +
                  static_cast<std::ptrdiff_t>(evidence_offsets_[i]));
  }
  ev.prior_log_odds = classifier_->prior_log_odds().value();
  ev.decomposable = classifier_->score_decomposable();
}

Classification AnomalyPredictor::classify_current() const {
  PREPARE_CHECK_MSG(trained_ && has_observation_,
                    "classify_current() needs a trained model and a sample");
  obs::ScopedTimer timer(stage_classify_);
  Classification cls = classifier_->classify(last_row_);
  if (supervised_without_abnormal_) cls.abnormal = false;
  return cls;
}

const Classifier& AnomalyPredictor::classifier() const {
  PREPARE_CHECK(trained_);
  return *classifier_;
}

}  // namespace prepare
