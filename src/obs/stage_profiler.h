// Stage profiler: RAII wall-time instrumentation of the controller
// pipeline.
//
// The paper's Table 1 breaks PREPARE's runtime overhead down by module;
// the stage histograms reproduce that view at runtime. Each named stage
// owns a `stage.<name>.seconds` histogram in the MetricsRegistry, and a
// ScopedTimer records one sample per timed scope:
//
//   obs::Histogram* stage =                       // null registry => null
//       obs::stage_histogram(registry, "tan_classify");
//   ...
//   { obs::ScopedTimer t(stage); classify(); }    // per call site
//
// Timers nest freely (each records its own full span; inner spans are
// not subtracted from outer ones) and cost two steady_clock reads per
// scope — or nothing at all when the handle is null.
#pragma once

#include <array>
#include <chrono>
#include <ostream>
#include <string>

#include "obs/metrics.h"

namespace prepare {
namespace obs {

// Canonical names of the seven controller pipeline stages, in pipeline
// order (monitor sample → discretize → Markov look-ahead → TAN classify
// → alarm filter → cause inference → prevention/validation). Exporters
// and the Table-1 bench key on these.
inline constexpr const char* kStageMonitorSample = "monitor_sample";
inline constexpr const char* kStageDiscretize = "discretize";
inline constexpr const char* kStageMarkovLookahead = "markov_lookahead";
inline constexpr const char* kStageTanClassify = "tan_classify";
inline constexpr const char* kStageAlarmFilter = "alarm_filter";
inline constexpr const char* kStageCauseInference = "cause_inference";
inline constexpr const char* kStagePrevention = "prevention";

inline constexpr std::array<const char*, 7> kPipelineStages = {
    kStageMonitorSample,  kStageDiscretize,     kStageMarkovLookahead,
    kStageTanClassify,    kStageAlarmFilter,    kStageCauseInference,
    kStagePrevention,
};

/// Registry name of a stage's wall-time histogram.
std::string stage_metric_name(const std::string& stage);

/// A stage's wall-time histogram, registered on first use; nullptr when
/// `registry` is null. Cache the pointer on hot paths: this does a map
/// lookup.
inline Histogram* stage_histogram(MetricsRegistry* registry,
                                  const std::string& stage) {
  return histogram(registry, stage_metric_name(stage));
}

/// Records elapsed wall time (seconds) into a histogram on destruction
/// or stop(), whichever comes first. A null histogram disables the
/// timer entirely.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now; the destructor then does nothing. Idempotent.
  void stop() {
    if (histogram_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    histogram_->record(std::chrono::duration<double>(end - start_).count());
    histogram_ = nullptr;
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Table-1-style overhead report: one row per `stage.*.seconds`
/// histogram found in the registry (count, p50/p90/p99, mean, total).
void write_stage_report(const MetricsRegistry& registry, std::ostream& os);

}  // namespace obs
}  // namespace prepare
