// Stage profiler: RAII wall-time instrumentation of the controller
// pipeline.
//
// The paper's Table 1 breaks PREPARE's runtime overhead down by module;
// the StageProfiler reproduces that view at runtime. Each named stage
// owns a `stage.<name>.seconds` histogram in the MetricsRegistry, and a
// ScopedTimer records one sample per timed scope:
//
//   obs::StageProfiler profiler(registry);            // null => no-op
//   obs::Histogram* stage = profiler.stage("tan_classify");
//   ...
//   { obs::ScopedTimer t(stage); classify(); }        // per call site
//
// Timers nest freely (each records its own full span; inner spans are
// not subtracted from outer ones) and cost two steady_clock reads per
// scope — or nothing at all when the handle is null.
#pragma once

#include <array>
#include <chrono>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/analyze_annotations.h"
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

/// Hands out per-stage histograms registered as `stage.<name>.seconds`
/// and remembers registration order for reporting. Disabled (every
/// stage() is nullptr, every timer a no-op) when built with a null
/// registry.
///
/// stage() is thread-safe; recording through the returned histograms is
/// thread-safe too (the /metrics server thread reads them while the
/// driver records). stages() is an export-time read requiring
/// quiescence.
class StageProfiler {
 public:
  explicit StageProfiler(MetricsRegistry* registry) : registry_(registry) {}

  bool enabled() const { return registry_ != nullptr; }

  /// Histogram for one stage; registers on first use. Cache the pointer
  /// on hot paths — this does a map lookup.
  Histogram* stage(const std::string& name);

  /// Convenience for cold call sites.
  ScopedTimer scoped(const std::string& name) {
    return ScopedTimer(stage(name));
  }

  /// Stages in first-use order. Quiescent-only: callers must ensure no
  /// concurrent stage() registration (reports run after the run) —
  /// the driver-confined annotation makes the analyzer prove no worker
  /// lambda ever reaches this serial section.
  PREPARE_DRIVER_CONFINED
  const std::vector<std::pair<std::string, Histogram*>>& stages() const
      PREPARE_NO_THREAD_SAFETY_ANALYSIS {
    return stages_;
  }

 private:
  MetricsRegistry* registry_;
  mutable Mutex mu_;
  std::vector<std::pair<std::string, Histogram*>> stages_
      PREPARE_GUARDED_BY(mu_);
};

/// Table-1-style overhead report: one row per `stage.*.seconds`
/// histogram found in the registry (count, p50/p90/p99, mean, total).
void write_stage_report(const MetricsRegistry& registry, std::ostream& os);

}  // namespace obs
}  // namespace prepare
