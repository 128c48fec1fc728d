// Scenario driver for the repo benchmark.
//
// Runs one PREPARE scenario the way core/experiment.cpp's run_scenario
// does — same testbed, same timeline, same call order — but rebuilt from
// public headers so that every call into a layer can be timed from the
// outside. Nothing inside src/ is instrumented by this file; controller
// stages are read back from the existing stage.*.seconds histograms when
// the caller attaches a MetricsRegistry.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/model_introspect.h"
#include "obs/span_tracer.h"
#include "sim/event_log.h"

namespace perfbench {

/// Layers timed around the driver's own calls into src/. A span covers
/// one call site per tick or round: sim.begin_tick is the loop over the
/// app's VMs, monitor.sample is sample + store.record over the VMs.
enum Layer : std::size_t {
  kBeginTick,
  kFaultsApply,
  kAppsStep,
  kSloRecord,
  kMonitorSample,
  kTrain,
  kOnSample,
  kObsFinish,
  kObsExport,
  kLayerCount,
};

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sim.begin_tick",     "faults.apply",   "apps.step",
    "monitor.slo_record", "monitor.sample", "core.train",
    "core.on_sample",     "obs.finish",     "obs.export",
};

/// Per-call wall times (seconds) of every traced layer, appended across
/// scenarios.
struct LayerSamples {
  std::array<std::vector<double>, kLayerCount> calls;
};

/// The one place controllers are made: everything else talks to the
/// AnomalyManager interface.
std::unique_ptr<prepare::AnomalyManager> make_manager(
    prepare::Scheme scheme, const prepare::ControllerContext& ctx,
    const prepare::PrepareConfig& config);

/// Benchmark cell `index` (0..5) of {System S, RUBiS} x {memory leak,
/// CPU hog, bottleneck}, with the paper's scaling-only prevention and a
/// single-threaded controller.
prepare::ScenarioConfig cell_config(std::size_t index, prepare::Scheme scheme,
                                    std::uint64_t seed);

/// FNV-1a 64: the digest seed and one mixing step.
inline constexpr std::uint64_t kDigestSeed = 14695981039346656037ULL;
void digest_mix(std::uint64_t* h, const void* data, std::size_t n);

/// Hash of a run's decisions: every EventLog record, then the
/// measurement-window violation time (bit patterns, not formatted text).
std::uint64_t decision_digest(const prepare::EventLog& events,
                              double violation_time);

struct ScenarioRun {
  double wall_s = 0.0;           ///< testbed build through observer export
  std::size_t vms = 0;           ///< the application's VMs
  std::size_t vm_ticks = 0;
  double train_s = 0.0;
  std::vector<double> round_s;   ///< on_sample wall time, trained rounds
  std::size_t rounds = 0;        ///< every on_sample call
  double violation_time = 0.0;
  std::uint64_t digest = 0;
  prepare::EventLog events;
  // Observer outputs (zero unless the config carries observers).
  std::size_t export_bytes = 0;
  std::size_t replay_failures = 0;
  /// Bundles whose only mismatch is the known reactive-path diagnosis
  /// re-ranking (see is_reactive_rerank in harness.cpp); reported, not
  /// failed.
  std::size_t replay_diagnosis_mismatches = 0;
  std::vector<double> replay_s;  ///< replay_episode wall time per bundle
};

/// The observers of the `observed` workload, fresh per scenario (episodes,
/// calibration state and bundles are per-run), publishing into `registry`.
struct Observers {
  explicit Observers(prepare::obs::MetricsRegistry* r)
      : registry(r), tracer(r), introspect(r), recorder(r) {}
  /// Points `config`'s registry and observers at these.
  void attach(prepare::ScenarioConfig* config);

  prepare::obs::MetricsRegistry* registry;
  prepare::obs::SpanTracer tracer;
  prepare::obs::ModelIntrospect introspect;
  prepare::obs::FlightRecorder recorder;
};

/// Runs one scenario. Observers are taken from `config` (metrics, tracer,
/// introspect, recorder), exactly as run_scenario wires them; a recorder
/// is replayed bundle by bundle after the wall clock stops. With
/// `layers` non-null every layer call is timed into it; on_sample and
/// train are always timed (the end-to-end metrics need them).
ScenarioRun run_driver(const prepare::ScenarioConfig& config,
                       LayerSamples* layers);

}  // namespace perfbench
