// Experiment harness reproducing the paper's evaluation methodology
// (Section III-A):
//
//  * two case-study systems (System S-like stream processing, RUBiS-like
//    3-tier web application), each component in its own VM on its own
//    host, plus spare hosts as migration targets;
//  * three fault types, injected twice per run — the model learns from
//    the first injection (automatic runtime labeling) and predicts the
//    second;
//  * three management schemes (without intervention / reactive /
//    PREPARE) compared by SLO violation time around the second
//    injection; each experiment repeated with different seeds for
//    mean +/- standard deviation.
#pragma once

#include <optional>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "monitor/metric_store.h"
#include "monitor/slo_log.h"
#include "sim/event_log.h"

namespace prepare {

enum class AppKind { kSystemS, kRubis };
enum class FaultKind { kMemoryLeak, kCpuHog, kBottleneck };
enum class Scheme { kNoIntervention, kReactive, kPrepare };

const char* app_kind_name(AppKind a);
const char* fault_kind_name(FaultKind f);
const char* scheme_name(Scheme s);

struct ScenarioConfig {
  AppKind app = AppKind::kSystemS;
  FaultKind fault = FaultKind::kMemoryLeak;
  /// Fault type of the *second* injection. Defaults to `fault` (the
  /// paper's recurrent-anomaly setup); set differently to evaluate the
  /// unseen-anomaly case — a supervised model trained on the first fault
  /// type has never seen the second.
  std::optional<FaultKind> second_fault;
  Scheme scheme = Scheme::kPrepare;
  std::uint64_t seed = 1;

  /// Simulation resolution and monitoring cadence.
  double dt = 1.0;
  double sampling_interval_s = 5.0;
  double monitor_noise = 0.02;
  /// Memory attributes from the in-guest daemon (paper default) or
  /// inferred gray-box from paging signals (Section V alternative).
  bool graybox_memory = false;

  /// Timeline (paper: runs of 1200-1800 s, two ~300 s injections, model
  /// trained from the first and predicting the second).
  double fault1_start = 300.0;
  double fault2_start = 900.0;
  double fault_duration = 300.0;
  double train_time = 700.0;
  double run_end = 1350.0;

  /// Fault intensities. The hog is a CPU-bound program with several busy
  /// worker threads (it wants hog_cores full cores), like the paper's
  /// competing CPU-bound program / infinite-loop bug.
  double leak_rate_mb_s = 2.5;
  double hog_cores = 8.0;

  /// Controller configuration (prevention mode selects scaling
  /// vs. migration, i.e. Fig. 6/7 vs. Fig. 8/9).
  PrepareConfig prepare;

  /// Must be 1 (ControllerContext::num_threads): the management round
  /// runs on one thread. Kept only because the repo benchmark's harness
  /// assigns it.
  std::size_t num_threads = 1;

  /// Optional observability registry. When set, the run publishes
  /// run.* / sim.* / controller.* / prevention.* metrics and times all
  /// seven pipeline stages into stage.<name>.seconds histograms; when
  /// null (default) no instrumentation code runs at all. Must outlive
  /// the run; pass a freshly reset() registry per repeat to keep runs
  /// separable.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional alert-lifecycle span tracer (obs/span_tracer.h). The run
  /// drives it through the controller and closes every still-open
  /// episode (finish) when the simulation ends. Must outlive the run;
  /// pass a fresh tracer per repeat — episodes are per-run.
  obs::SpanTracer* tracer = nullptr;
  /// Optional model-introspection layer (obs/model_introspect.h):
  /// per-horizon prediction calibration, model-state probes, and drift
  /// detection, driven by the prepare controller and finalized when the
  /// simulation ends. Must outlive the run; pass a fresh introspector
  /// per repeat — calibration state is per-run.
  obs::ModelIntrospect* introspect = nullptr;
  /// Optional episode flight recorder (obs/flight_recorder.h): per-VM
  /// decision-evidence rings flushed into forensic episode bundles on
  /// episode close, driven by the prepare controller (through the
  /// tracer's lifecycle hooks — set `tracer` too or the recorder stays
  /// inert) and finalized when the simulation ends. Must outlive the
  /// run; pass a fresh recorder per repeat — bundles are per-run.
  obs::FlightRecorder* recorder = nullptr;
};

struct ScenarioResult {
  /// SLO violation time within the measurement window around the second
  /// injection — the Fig. 6 / Fig. 8 metric.
  double violation_time = 0.0;
  double violation_time_total = 0.0;
  double measure_start = 0.0;
  double measure_end = 0.0;
  /// Work accounting for bench throughput rates: the run simulated
  /// `ticks` steps of `vm_count` VMs, i.e. vm_count * ticks VM-ticks.
  std::size_t vm_count = 0;
  std::size_t ticks = 0;
  std::string faulty_vm;  ///< ground truth
  SloLog slo;
  MetricStore store;
  EventLog events;
};

/// Throws CheckFailure when run_scenario() cannot run `config`: dt
/// must be positive, and the sampling interval a whole multiple of dt.
void check_scenario_config(const ScenarioConfig& config);

/// Runs one scenario end to end; check_scenario_config() first.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Runs `repeats` scenarios with seeds seed, seed+1, ... and aggregates
/// the violation times.
struct RepeatedResult {
  double mean = 0.0;
  double stddev = 0.0;
  /// Total simulated work across all repeats (sum of per-run
  /// vm_count * ticks), for bench VM-ticks/sec rates.
  std::size_t vm_ticks = 0;
  std::vector<double> runs;
};
RepeatedResult run_repeated(ScenarioConfig config, std::size_t repeats);

}  // namespace prepare
