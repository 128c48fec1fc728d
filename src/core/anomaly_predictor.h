// Online anomaly predictor: attribute-value prediction + multi-variant
// anomaly classification (paper Section II-B).
//
// One instance models one *component* (normally one VM with its 13
// attributes; the "monolithic" baseline of Fig. 10 feeds the concatenated
// attributes of every VM into a single instance). For each feature the
// predictor maintains a Markov value predictor over discretized values
// (one MarkovBank holds them all); prediction at a look-ahead of k
// sampling intervals pushes each feature k steps forward and classifies
// the resulting joint (independent) distribution with the TAN (or naive
// Bayes) classifier.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/analyze_annotations.h"
#include "models/classifier.h"
#include "models/discretizer.h"
#include "models/markov_bank.h"
#include "obs/model_introspect.h"
#include "obs/stage_profiler.h"

namespace prepare {

/// kNaiveBayes is the TAN classifier without its tree (every attribute's
/// only parent is the class). kOutlier is the Section V extension: an
/// unsupervised tree-structured density model that flags never-seen
/// states, enabling prediction of anomaly types absent from the training
/// data (at reduced specificity).
enum class ClassifierKind { kNaiveBayes, kTan, kOutlier };

struct PredictorConfig {
  /// Discretization grid per feature. Keep coarse: runs provide a few
  /// hundred training samples and the 2-dependent model has bins^2
  /// transition rows (the paper's Fig. 2 example uses 3 states).
  /// Quantile bins merge ties, so the effective alphabet per feature can
  /// be smaller.
  std::size_t bins = 5;
  DiscretizerKind discretizer = DiscretizerKind::kEqualWidth;
  /// Add never-trained-on guard bins beyond the training range (pairs
  /// with the kOutlier classifier: out-of-range values become maximally
  /// surprising instead of blending into the edge bins).
  bool guard_bins = false;
  /// Fit discretizer ranges on normal-labeled samples only: anomaly-era
  /// extremes (a saturated CPU, a zeroed free-memory) then clamp into
  /// the edge bins instead of stretching the grid so far that the whole
  /// healthy-to-degrading trajectory collapses into one bin.
  bool fit_on_normal = true;
  /// Markov context length (MarkovBank order): 2 is the paper's
  /// 2-dependent model, 1 the simple chain Fig. 11 compares it with.
  /// Higher orders need alphabet^order rows of training data.
  std::size_t markov_order = 2;
  ClassifierKind classifier = ClassifierKind::kTan;
  double classifier_alpha = 0.5;       ///< Laplace smoothing (CPTs)
  double markov_alpha = 0.05;          ///< Laplace smoothing (transitions)
  /// Decision quantile and calibration headroom for the unsupervised
  /// outlier classifier.
  double outlier_quantile = 0.995;
  double outlier_threshold_margin = 1.25;
  /// Keep updating Markov transition counts from runtime observations
  /// (the paper's periodic model update).
  bool online_learning = true;
  /// Minimum true-positive rate on the model's own training data for the
  /// model to count as discriminative. A component whose metrics look
  /// the same in both classes (e.g. a PE upstream of the faulty one)
  /// cannot be pinpointed — its score just hovers at the class prior and
  /// only emits noise.
  double min_train_tpr = 0.5;
  /// How predicted value distributions are classified:
  ///  * mode (default): classify the single most likely future
  ///    assignment — sharp, keeps correlated attributes consistent, and
  ///    yields the longest alert lead time;
  ///  * expectation: average each attribute's impact over its predicted
  ///    distribution (the TAN pins the parent at its mode); softer and
  ///    kept for the ablation bench.
  bool classify_mode = true;
};

class AnomalyPredictor {
 public:
  /// `look_ahead` = false builds a predictor that only classifies the
  /// current sample (the reactive baseline): train() builds no Markov
  /// bank, observe() only discretizes, ready() stays false and
  /// predict() throws.
  AnomalyPredictor(std::vector<std::string> feature_names,
                   PredictorConfig config = PredictorConfig(),
                   bool look_ahead = true);

  /// Trains discretizers, value predictors (with look-ahead) and the
  /// classifier from labeled feature columns: columns[i][r] is feature i
  /// of sample r, one column per feature, each aligned with `abnormal`.
  void train(std::span<const std::vector<double>> columns,
             const std::vector<bool>& abnormal);
  bool trained() const { return trained_; }

  /// Feeds one runtime sample, one value per feature: the row
  /// classify_current() reads, and with look-ahead the next symbol of
  /// every feature's Markov context. Only valid after train().
  void observe(std::span<const double> row);

  struct Result {
    Classification classification;
    /// Expected feature values at the prediction horizon (bin-center
    /// expectations) — the "informative" part of the alert. Filled by
    /// predict() only: no controller reads them, so predict_into()
    /// leaves them empty.
    std::vector<double> predicted_values;
    /// Predicted anomaly probability per horizon step 1..steps
    /// (sigmoid of the mode-row classifier score at each step). Only
    /// filled when an introspector is attached — the controller folds
    /// it into the calibration tracker from its serial section.
    std::vector<double> horizon_probs;

    /// Decision evidence for the flight recorder
    /// (obs/flight_recorder.h): everything the downstream
    /// alert/diagnosis/prevention decisions were computed from, so a
    /// closed episode can be re-executed bit-identically offline. Only
    /// filled when evidence capture is enabled (set_evidence_capture);
    /// the fill is a plain copy of predictor scratch, so enabling it
    /// never changes a classification.
    struct Evidence {
      bool valid = false;
      /// Raw (pre-discretization) values of the latest observe() row.
      std::vector<double> raw;
      /// Discretized current row (the Markov contexts' last symbols).
      std::vector<std::size_t> observed_row;
      /// Per-attribute mode of the final-step predicted distribution —
      /// the row the mode-path classification scored.
      std::vector<std::size_t> mode_row;
      /// Final-step predicted distributions, flattened attribute-major:
      /// attribute i occupies [offsets[i], offsets[i+1]) where the
      /// offsets come from AnomalyPredictor::attribute_alphabet().
      std::vector<double> dists;
      /// Class-prior log-odds term the impact sum starts from; only
      /// meaningful when `decomposable` (Bayesian backends).
      double prior_log_odds = 0.0;
      bool decomposable = false;
    };
    Evidence evidence;
  };

  /// Classifies the state `steps` sampling intervals ahead and fills
  /// Result::predicted_values. With an introspector attached this also
  /// fills Result::horizon_probs (the scored per-step horizon path).
  Result predict(TickIndex steps) const;
  /// The steady-state prediction path, written into `out` (non-null) so
  /// the controller reuses one Result for every VM instead of
  /// allocating fresh vectors every round. The horizon-path decision is
  /// the caller's: the controller resolves
  /// ModelIntrospect::calibration_due() once per round and passes it
  /// here, so the (more expensive) scored path runs only on sampled
  /// calibration rounds and predict_into() itself never calls the
  /// introspector. `with_horizon` is ignored when no introspector is
  /// attached. PREPARE_HOT: the analyzer proves this transitively
  /// allocation-, lock- and IO-free (the value-returning predict() above
  /// is a thin cold wrapper).
  PREPARE_HOT void predict_into(TickIndex steps, bool with_horizon,
                                Result* out) const;

  /// Classifies the most recently observed sample (used by the reactive
  /// path and for diagnosis once an anomaly has already manifested).
  Classification classify_current() const;

  /// Whether enough runtime samples have been observed to predict;
  /// never for a predictor built without look-ahead.
  bool ready() const;

  /// Whether the trained classifier separates the training classes (see
  /// PredictorConfig::min_train_tpr). Always true when the training data
  /// had no abnormal samples to separate.
  bool discriminative() const { return discriminative_; }
  /// True-positive rate of the classifier on its own training data.
  double train_tpr() const { return train_tpr_; }

  const std::vector<std::string>& feature_names() const { return names_; }
  std::size_t feature_count() const { return names_.size(); }
  const PredictorConfig& config() const { return config_; }
  const Classifier& classifier() const;

  /// Effective alphabet (bin count) of feature `i` after training —
  /// quantile discretization merges ties, so this can be smaller than
  /// PredictorConfig::bins and differs per (VM, attribute). The flight
  /// recorder sizes its evidence rings from these.
  std::size_t attribute_alphabet(std::size_t i) const;

  /// Enables decision-evidence capture: observe() keeps the raw row and
  /// predict_into() fills Result::evidence (a scratch copy — the
  /// classification itself is unchanged). Off by default: the evidence
  /// copy is only paid when a flight recorder is attached.
  void set_evidence_capture(bool capture) { capture_evidence_ = capture; }

  /// Attaches per-stage wall-time instrumentation (discretize, Markov
  /// look-ahead, TAN classify). The registry must outlive the
  /// predictor; nullptr detaches (the default: zero overhead).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches the model-introspection layer. With an introspector
  /// attached, train() feeds the discretizer bin-occupancy baselines,
  /// observe() feeds runtime symbols into the occupancy drift window,
  /// and predict() fills Result::horizon_probs for the calibration
  /// tracker. The introspector must outlive the predictor; nullptr
  /// detaches. predict() itself never calls into the introspector: the
  /// controller folds Result::horizon_probs into it.
  void set_introspect(obs::ModelIntrospect* introspect);

  /// Sweeps every attribute's Markov transition rows and the
  /// classifier's CPTs into the attached introspector's probe
  /// accumulators. Driver thread only, between begin_probe() and
  /// end_probe(); no-op when nothing is attached or not yet trained.
  void report_model_state() const;

 private:
  /// Copies the decision evidence of the prediction just computed
  /// (scratch_dists_ and scratch_mode_row_ must hold the final step's
  /// distributions and mode row) into out->evidence. Hot like its
  /// callers: pure copies into capacity-steady storage.
  void capture_evidence_into(Result* out) const;

  std::vector<std::string> names_;
  PredictorConfig config_;
  bool look_ahead_;
  bool trained_ = false;

  std::vector<Discretizer> discretizers_;
  /// Built by train() with look-ahead only.
  std::optional<MarkovBank> bank_;
  std::unique_ptr<Classifier> classifier_;
  std::vector<std::size_t> last_row_;
  /// Raw values of the latest observe() row; only maintained when
  /// evidence capture is on (the discretized row suffices otherwise).
  std::vector<double> last_raw_row_;
  bool capture_evidence_ = false;
  /// Flattened-evidence layout: offsets_[i] is where feature i's
  /// final-step distribution starts in Result::Evidence::dists
  /// (offsets_[n] = total length). Built by train().
  std::vector<std::size_t> evidence_offsets_;
  bool has_observation_ = false;
  bool discriminative_ = true;
  bool supervised_without_abnormal_ = false;
  double train_tpr_ = 0.0;

  // Stage wall-time histograms (null = uninstrumented).
  obs::Histogram* stage_discretize_ = nullptr;
  obs::Histogram* stage_lookahead_ = nullptr;
  obs::Histogram* stage_classify_ = nullptr;

  // Model-introspection sink (null = uninstrumented).
  obs::ModelIntrospect* introspect_ = nullptr;

  // Per-predict transient buffers, reused across ticks so the steady
  // state allocates nothing. `mutable` lets the const predict path
  // write them, so one predictor must not predict on two threads at
  // once; the controller predicts every VM on its one thread.
  /// Final-step distribution and its mode per feature.
  mutable std::vector<Distribution> scratch_dists_;
  mutable std::vector<std::size_t> scratch_mode_row_;
  /// One horizon step's mode row, scored on calibration rounds.
  mutable std::vector<std::size_t> scratch_row_;
  /// Step-major horizon mode rows (scratch_modes_[s * nf + i] is the
  /// mode of feature i's distribution at step s + 1); only filled on
  /// calibration rounds with an introspector attached.
  mutable std::vector<std::size_t> scratch_modes_;
};

}  // namespace prepare
