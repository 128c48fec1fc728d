// Episode flight recorder: the decision-evidence "black box".
//
// The SpanTracer (obs/span_tracer.h) records *that* an alert episode
// moved through the pipeline; this class records *what the decisions
// were computed from*. Per VM it keeps a fixed-capacity ring of the
// last W ticks of decision evidence — the raw 13-attribute metric
// vector, its discretized bins, the Markov-predicted final-step value
// distributions, the TAN log-odds score with its per-attribute L_i
// contributions, the alarm-filter raw/confirmed flags, and (when the
// calibration stride sampled them) the per-horizon-step anomaly
// probabilities. When a SpanTracer episode closes, the pre-alert ring
// context plus every tick of the episode is flushed into a
// self-contained *episode bundle*, together with the cause-inference
// ranking and every prevention decision input. Bundles are exported as
// trace schema v4 `episode_evidence` records (obs/trace_export.h) and
// are complete enough that core/replay.h can re-run
// predict -> classify -> filter -> prevention bit-identically offline —
// the determinism proof that nothing the controller used is missing.
//
// Threading and determinism contract: identical to the SpanTracer. The
// recorder is PREPARE_DRIVER_CONFINED — the controller feeds it from
// the driver thread in deterministic VM-name order, so every run of
// one seed produces byte-identical bundles. The steady-state entry
// point record_tick() is PREPARE_HOT: after register_vm() sizes the
// ring and the open capture, it only copies into that storage — the
// analyzer proves it allocation-, lock- and IO-free.
//
// Memory accounting (defaults): register_vm() makes two blocks per VM,
// one of doubles and one of integers, cut into ring_ticks (32) ring
// slots followed by max_bundle_ticks (160) open-capture slots of one
// fixed stride each, whatever the two counts are. A slot holds t, the
// score, the prior, 13 raw values, 13 impacts, ~65 flattened
// distribution probabilities and 24 horizon slots (~0.9 KB), plus the
// four flags, the horizon length, 13 bins and 13 modes (~0.25 KB), so
// a VM holds ~225 KB. A close copies only the captured prefix into the
// bundle's EvidenceTicks; max_bundles caps the per-run retained total
// and further episodes count into recorder.dropped_total instead of
// growing without bound. The export formats a tick record's fields
// once per distinct tick: back-to-back episodes share their pre-alert
// context, so a bundle often repeats the last ticks of its VM's
// previous bundle, and their bytes are written again, not formatted
// again.
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/analyze_annotations.h"
#include "obs/metrics.h"

namespace prepare {
namespace obs {

struct FlightRecorderConfig {
  /// Ring capacity per VM (W ticks of continuous evidence).
  std::size_t ring_ticks = 32;
  /// Ticks of pre-alert context copied from the ring into a bundle when
  /// an episode opens. Must be >= the alarm filter window W (checked in
  /// set_decision_config): replay seeds its filter from the captured
  /// pre-context, so the window must be fully determined by it.
  std::size_t pre_context_ticks = 8;
  /// Longest episode fully captured; further ticks are dropped and
  /// counted in the bundle's truncated_ticks (and the recorder's
  /// truncated-ticks total).
  std::size_t max_bundle_ticks = 160;
  /// Per-run bundle cap; episodes opening beyond it are not captured
  /// and count into recorder.dropped_total.
  std::size_t max_bundles = 64;
};

/// Per-VM evidence geometry, fixed at register_vm() time. Quantile
/// discretization merges ties, so the flattened-distribution layout
/// differs per (VM, attribute).
struct EvidenceLayout {
  std::size_t attributes = 0;
  /// offsets[i] is where attribute i's final-step distribution starts
  /// in the flattened dists block; offsets[attributes] is its length.
  std::vector<std::size_t> offsets;
  /// Attribute names (export + explain tool), size `attributes`.
  std::vector<std::string> attribute_names;
  /// Maximum horizon_probs length (the look-ahead step count).
  std::size_t horizon_steps = 0;
};

/// The decision parameters a bundle must carry to be re-executable:
/// the alarm filter shape, the alert gate, and the prevention policy.
/// Plain ints where core/ owns the enum — obs/ sits below core/ in the
/// layering DAG and cannot name PreventionMode.
struct DecisionConfig {
  std::size_t filter_k = 3;
  std::size_t filter_w = 4;
  double alert_min_top_impact = 0.5;
  /// PreventionMode as int: 0 scaling-only, 1 migration-only,
  /// 2 scaling-then-migration (core/prevention.h order).
  int prevention_mode = 2;
  bool companion_scaling = true;
  double lookahead_s = 120.0;
  double sampling_interval_s = 5.0;
};

/// One tick of decision evidence, handed to record_tick() as a view
/// into the controller's per-VM Result slot (no ownership, valid for
/// the duration of the call).
struct EvidenceFrame {
  double t = 0.0;
  bool abnormal = false;
  bool raw_alert = false;
  bool confirmed = false;
  double score = 0.0;
  double prior_log_odds = 0.0;
  bool decomposable = false;
  const double* raw = nullptr;              ///< [attributes]
  const std::size_t* observed_row = nullptr;///< [attributes]
  const std::size_t* mode_row = nullptr;    ///< [attributes]
  const double* impacts = nullptr;          ///< [attributes]
  const double* dists = nullptr;            ///< [offsets.back()]
  const double* horizon_probs = nullptr;    ///< [horizon_len] or null
  std::size_t horizon_len = 0;
};

/// One bundled evidence tick (owning copy of an EvidenceFrame), built
/// when its episode closes.
struct EvidenceTick {
  double t = 0.0;
  bool abnormal = false;
  bool raw_alert = false;
  bool confirmed = false;
  double score = 0.0;
  double prior_log_odds = 0.0;
  bool decomposable = false;
  std::vector<double> raw;
  std::vector<std::size_t> observed_row;
  std::vector<std::size_t> mode_row;
  std::vector<double> impacts;
  std::vector<double> dists;
  /// The per-step anomaly probabilities the frame carried: empty when
  /// the calibration stride did not sample the tick.
  std::vector<double> horizon_probs;
};

/// Cause-inference evidence: the ranked attribution the actuator walked.
struct DiagnosisEvidence {
  bool valid = false;
  double t = 0.0;
  std::vector<std::size_t> ranked;  ///< attribute indices, top first
  std::vector<double> impacts;      ///< aligned with `ranked`
};

/// One prevention decision input: everything apply_action() looked at,
/// so replay (and a what-if policy override) can re-derive the chosen
/// action without a cluster.
struct PreventionEvidence {
  double t = 0.0;
  /// 0 = initial ranked-walk attempt, 1 = companion scaling,
  /// 2 = validation fallback attempt.
  int phase = 0;
  std::size_t attribute = 0;
  int metric_kind = 2;  ///< 0 cpu, 1 memory, 2 other
  bool scale_possible = false;
  bool migrate_possible = false;
  /// 0 none (attempt failed), 1 scaled, 2 migrated.
  int applied = 0;
};

/// A counterfactual replay annotation (attached after a what-if run so
/// the diff is exported alongside the bundle it re-executed).
struct CounterfactualNote {
  int policy = 0;           ///< the overridden prevention mode
  std::size_t compared = 0; ///< prevention decisions re-derived
  std::size_t diverged = 0; ///< decisions that changed under the policy
  std::string detail;       ///< first divergence, human-readable
};

/// One flushed episode: pre-alert context + full episode + diagnosis +
/// prevention inputs + the decision config — self-contained.
struct EpisodeBundle {
  std::string trace_id;  ///< matches the SpanTracer episode
  std::string vm;
  double t_open = 0.0;
  double t_close = 0.0;
  std::string outcome;  ///< episode_outcome_name of the closing fold
  /// Leading ticks of `ticks` that are pre-alert ring context; the
  /// remainder are episode ticks (open..close).
  std::size_t pre_ticks = 0;
  std::size_t truncated_ticks = 0;
  EvidenceLayout layout;
  DecisionConfig decision;
  std::vector<EvidenceTick> ticks;
  DiagnosisEvidence diagnosis;
  std::vector<PreventionEvidence> preventions;
  std::vector<CounterfactualNote> counterfactuals;
};

class PREPARE_DRIVER_CONFINED FlightRecorder {
 public:
  /// `metrics` (optional) receives the recorder.* instruments at
  /// finish(); it must outlive the recorder.
  explicit FlightRecorder(MetricsRegistry* metrics = nullptr,
                          FlightRecorderConfig config = FlightRecorderConfig());

  /// Snapshots the decision parameters bundles will carry. Checks
  /// pre_context_ticks >= filter_w (replay seeds its alarm filter from
  /// the captured pre-context; a shorter context would leave the first
  /// episode ticks' window underdetermined).
  void set_decision_config(const DecisionConfig& decision);

  /// Registers one VM and sizes its evidence ring and open capture, one
  /// block of doubles and one of integers; returns the slot index
  /// record_tick() takes. Cold (train time, once per VM).
  std::size_t register_vm(const std::string& vm, EvidenceLayout layout);
  std::size_t registered_vms() const { return vms_.size(); }

  /// Buffers one tick of evidence into the VM's ring and, while an
  /// episode capture is open, into the open bundle. The steady-state
  /// path: pure copies into storage pre-sized by register_vm() /
  /// episode_opened().
  PREPARE_HOT void record_tick(std::size_t slot, const EvidenceFrame& frame);

  // ---- episode lifecycle (driven by the SpanTracer's hooks) ----

  /// An episode opened on `vm`: starts a capture seeded with the last
  /// pre_context_ticks ring ticks. Beyond max_bundles the capture is
  /// dropped (counted); unknown VMs are ignored.
  void episode_opened(const std::string& vm, const std::string& trace_id,
                      double now);
  /// The episode closed with a terminal outcome: flushes the capture
  /// into a bundle.
  void episode_closed(const std::string& vm, double now,
                      const char* outcome);
  /// Cause inference called it a workload change: the capture is
  /// discarded, mirroring the tracer dropping the episode.
  void episode_suppressed(const std::string& vm);

  // ---- decision evidence (controller / actuator, serial sections) ----

  /// The cause-inference ranking for an open capture (first one wins,
  /// like the tracer's cause_inferred span).
  void record_diagnosis(const std::string& vm, double t,
                        const std::size_t* ranked, const double* impacts,
                        std::size_t count);
  /// One prevention decision input (initial / companion / fallback).
  void record_prevention(const std::string& vm,
                         const PreventionEvidence& evidence);

  /// Attaches a counterfactual replay note to the bundle with this
  /// trace id (no-op if unknown). Called by the CLI after a what-if
  /// replay so the diff is exported with the evidence.
  void annotate_counterfactual(const std::string& trace_id,
                               const CounterfactualNote& note);

  /// Publishes the recorder.* metrics (run end).
  void finish();

  // ---- introspection / export (quiescent: after the run) ----

  const std::vector<EpisodeBundle>& bundles() const { return bundles_; }
  const DecisionConfig& decision_config() const { return decision_; }
  const FlightRecorderConfig& config() const { return config_; }
  std::size_t bundles_emitted() const { return bundles_.size(); }
  std::size_t dropped_total() const { return dropped_; }
  std::size_t ticks_recorded() const { return ticks_recorded_; }
  std::size_t truncated_ticks_total() const { return truncated_ticks_; }
  /// Most ticks simultaneously buffered in any VM's ring (<= ring_ticks).
  std::size_t ring_high_water() const { return ring_high_water_; }

  /// Writes the schema-v4 `episode_evidence` records: one `bundle`
  /// header, one `tick` per captured tick, one `diagnosis`, one
  /// `prevention` per decision input, and one `counterfactual` per
  /// attached note — per bundle, in flush order. A tick record that
  /// repeats, bit for bit, one of the last pre_context_ticks ticks of
  /// its VM's previous bundle reuses that tick's formatted fields.
  void write_evidence_jsonl(std::ostream& os, const std::string& run_id) const;

 private:
  struct PerVm {
    std::string name;
    EvidenceLayout layout;
    /// Doubles and integers per stored tick, from the layout.
    std::size_t real_stride = 0;
    std::size_t index_stride = 0;
    /// Slots [0, ring_ticks) are the ring, the rest the open capture;
    /// slot k starts at k * real_stride and k * index_stride.
    std::vector<double> reals;
    std::vector<std::size_t> indices;
    std::size_t head = 0;    ///< next ring slot to write
    std::size_t filled = 0;  ///< valid ring ticks (<= ring_ticks)
    bool capture_open = false;
    std::size_t capture_len = 0;  ///< captured ticks (<= max_bundle_ticks)
    /// The open episode's fields; its ticks are built at the close.
    EpisodeBundle open;
  };

  PREPARE_HOT void copy_frame(const EvidenceFrame& frame, PerVm* vm,
                              std::size_t slot) const;
  PREPARE_HOT void copy_slot(PerVm* vm, std::size_t from,
                             std::size_t to) const;
  EvidenceTick stored_tick(const PerVm& vm, std::size_t slot) const;
  PerVm* find_vm(const std::string& vm);

  FlightRecorderConfig config_;
  DecisionConfig decision_;
  std::vector<PerVm> vms_;
  std::map<std::string, std::size_t> slots_;  ///< by VM name
  std::vector<EpisodeBundle> bundles_;

  // Hot-path counters are plain members (no atomics, no instrument
  // calls on the record path); finish() publishes them.
  std::size_t ticks_recorded_ = 0;
  std::size_t dropped_ = 0;
  std::size_t truncated_ticks_ = 0;
  std::size_t ring_high_water_ = 0;

  Counter* bundles_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Counter* ticks_counter_ = nullptr;
  Counter* truncated_counter_ = nullptr;
  Gauge* high_water_gauge_ = nullptr;
};

}  // namespace obs
}  // namespace prepare
