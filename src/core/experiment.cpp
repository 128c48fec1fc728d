#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/stream/stream_app.h"
#include "apps/webapp/web_app.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "faults/injector.h"
#include "monitor/vm_monitor.h"
#include "obs/stage_profiler.h"
#include "sim/clock.h"
#include "sim/cluster.h"
#include "sim/hypervisor.h"
#include "workload/nasa_trace.h"
#include "workload/patterns.h"

namespace prepare {

const char* app_kind_name(AppKind a) {
  switch (a) {
    case AppKind::kSystemS: return "system_s";
    case AppKind::kRubis: return "rubis";
  }
  return "?";
}

const char* fault_kind_name(FaultKind f) {
  switch (f) {
    case FaultKind::kMemoryLeak: return "memory_leak";
    case FaultKind::kCpuHog: return "cpu_hog";
    case FaultKind::kBottleneck: return "bottleneck";
  }
  return "?";
}

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kNoIntervention: return "without_intervention";
    case Scheme::kReactive: return "reactive";
    case Scheme::kPrepare: return "prepare";
  }
  return "?";
}

namespace {

/// Nominal source rates under which both applications run comfortably.
constexpr double kStreamBaseRate = 25000.0;  // tuples/s
constexpr double kWebBaseRate = 60.0;        // requests/s

/// Ramp slopes for the bottleneck fault: reach the bottleneck
/// component's capacity roughly two thirds into the injection.
constexpr double kStreamRampSlope = 320.0;   // tuples/s per s
constexpr double kStreamRampCap = 118000.0;
constexpr double kWebRampSlope = 0.42;       // requests/s per s
constexpr double kWebRampCap = 185.0;

struct Testbed {
  SimClock clock;
  Cluster cluster;
  EventLog events;
  std::unique_ptr<Hypervisor> hypervisor;
  std::unique_ptr<CompositeWorkload> workload;
  std::unique_ptr<Application> app;
  FaultInjector injector;
  std::string faulty_vm;
};

void add_ramps_if_bottleneck(CompositeWorkload* w, const ScenarioConfig& c,
                             double slope, double cap) {
  // One overload ramp per bottleneck injection window (additive on the
  // base load); non-bottleneck injections do not touch the workload.
  if (c.fault == FaultKind::kBottleneck)
    w->add(std::make_unique<RampWorkload>(0.0, slope, c.fault1_start,
                                          c.fault1_start + c.fault_duration,
                                          cap));
  if (c.second_fault.value_or(c.fault) == FaultKind::kBottleneck)
    w->add(std::make_unique<RampWorkload>(0.0, slope, c.fault2_start,
                                          c.fault2_start + c.fault_duration,
                                          cap));
}

std::unique_ptr<Testbed> build_testbed(const ScenarioConfig& config) {
  auto bed = std::make_unique<Testbed>();
  // Attach instrumentation before any placement happens so initial VM
  // placements are counted and the event-log drop counter exists from
  // the first record.
  bed->cluster.set_metrics(config.metrics);
  bed->events.set_metrics(config.metrics);
  Rng rng(config.seed);

  const std::size_t app_vms =
      config.app == AppKind::kSystemS ? 7 : 4;
  // One host per application VM (paper: each PE in a guest VM on VCL
  // hosts) plus two idle spares as migration targets.
  std::vector<Vm*> vms;
  for (std::size_t i = 0; i < app_vms; ++i) {
    Host* host = bed->cluster.add_host("host" + std::to_string(i + 1));
    const std::string vm_name = config.app == AppKind::kSystemS
                                    ? "vm-pe" + std::to_string(i + 1)
                                    : std::vector<std::string>{
                                          "vm-web", "vm-app1", "vm-app2",
                                          "vm-db"}[i];
    const double mem =
        config.app == AppKind::kSystemS ? 512.0 : (i == 3 ? 1024.0 : 768.0);
    vms.push_back(bed->cluster.add_vm(vm_name, 1.0, mem, host));
  }
  bed->cluster.add_host("spare1");
  bed->cluster.add_host("spare2");

  bed->hypervisor = std::make_unique<Hypervisor>(&bed->clock, &bed->cluster,
                                                 &bed->events);

  // Workload: a realistic fluctuating base plus (for the bottleneck
  // fault) per-injection overload ramps.
  bed->workload = std::make_unique<CompositeWorkload>();
  if (config.app == AppKind::kSystemS) {
    bed->workload->add(std::make_unique<ConstantWorkload>(kStreamBaseRate));
    bed->workload->add(
        std::make_unique<SineWorkload>(0.0, 700.0, 240.0));
    add_ramps_if_bottleneck(bed->workload.get(), config, kStreamRampSlope,
                            kStreamRampCap);
    bed->app = std::make_unique<StreamApp>(vms, bed->workload.get());
  } else {
    NasaTraceConfig trace;
    trace.base_rate = kWebBaseRate;
    bed->workload->add(
        std::make_unique<NasaTraceWorkload>(trace, config.seed));
    add_ramps_if_bottleneck(bed->workload.get(), config, kWebRampSlope,
                            kWebRampCap);
    bed->app = std::make_unique<WebApp>(vms, bed->workload.get());
  }

  // Fault schedule: two injections of the same type on the same target
  // (the paper's recurrent-anomaly setup).
  Vm* target = nullptr;
  if (config.app == AppKind::kSystemS) {
    // Memory leak / CPU hog hit a randomly selected middle PE; the
    // bottleneck is PE6, the heavy network sink (Section III-A).
    target = config.fault == FaultKind::kBottleneck
                 ? vms[5]
                 : vms[static_cast<std::size_t>(rng.uniform_int(1, 4))];
  } else {
    // RUBiS faults all land in / saturate the database server.
    target = vms[3];
  }
  bed->faulty_vm = target->name();
  auto add_fault = [&](FaultKind kind, double start) {
    switch (kind) {
      case FaultKind::kMemoryLeak:
        bed->injector.add(std::make_unique<MemoryLeakFault>(
            target, start, config.fault_duration, config.leak_rate_mb_s));
        break;
      case FaultKind::kCpuHog:
        bed->injector.add(std::make_unique<CpuHogFault>(
            target, start, config.fault_duration, config.hog_cores));
        break;
      case FaultKind::kBottleneck:
        bed->injector.add(std::make_unique<BottleneckFault>(
            target, start, config.fault_duration));
        break;
    }
  };
  add_fault(config.fault, config.fault1_start);
  add_fault(config.second_fault.value_or(config.fault), config.fault2_start);
  return bed;
}

}  // namespace

void check_scenario_config(const ScenarioConfig& config) {
  PREPARE_CHECK(config.dt > 0.0);
  PREPARE_CHECK(config.sampling_interval_s >= config.dt);
  const auto sample_every = static_cast<std::size_t>(
      std::round(config.sampling_interval_s / config.dt));
  PREPARE_CHECK_MSG(
      std::abs(sample_every * config.dt - config.sampling_interval_s) < 1e-9,
      "sampling interval must be a multiple of dt");
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  check_scenario_config(config);
  const auto sample_every = static_cast<std::size_t>(
      std::round(config.sampling_interval_s / config.dt));

  auto bed = build_testbed(config);
  ScenarioResult result;
  result.faulty_vm = bed->faulty_vm;

  VmMonitorConfig mcfg;
  // Counter deltas over a shorter sampling window have proportionally
  // higher variance: fine-grained monitoring sees burstier values (this
  // is why the paper's 1 s interval predicts worse than 5 s, Fig. 13).
  mcfg.noise = config.monitor_noise *
               std::sqrt(5.0 / config.sampling_interval_s);
  if (config.graybox_memory)
    mcfg.memory_source = MemorySource::kGrayboxInference;
  VmMonitor monitor(mcfg, config.seed + 1000);

  ControllerContext ctx;
  ctx.app = bed->app.get();
  ctx.cluster = &bed->cluster;
  ctx.hypervisor = bed->hypervisor.get();
  ctx.store = &result.store;
  ctx.slo = &result.slo;
  ctx.log = &bed->events;
  ctx.metrics = config.metrics;
  ctx.tracer = config.tracer;
  ctx.introspect = config.introspect;
  ctx.recorder = config.recorder;
  ctx.num_threads = config.num_threads;

  PrepareConfig pcfg = config.prepare;
  pcfg.sampling_interval_s = config.sampling_interval_s;

  std::unique_ptr<AnomalyManager> manager;
  switch (config.scheme) {
    case Scheme::kNoIntervention:
      manager = std::make_unique<NoInterventionManager>(ctx);
      break;
    case Scheme::kReactive:
      manager = std::make_unique<ReactiveController>(ctx, pcfg);
      break;
    case Scheme::kPrepare:
      manager = std::make_unique<PrepareController>(ctx, pcfg);
      break;
  }

  obs::Histogram* stage_monitor =
      obs::stage_histogram(config.metrics, obs::kStageMonitorSample);
  obs::Counter* ticks_counter = obs::counter(config.metrics, "run.ticks_total");
  obs::Counter* samples_counter =
      obs::counter(config.metrics, "run.samples_total");
  obs::Gauge* sim_time_gauge = obs::gauge(config.metrics, "run.sim_time_s");

  const auto vms = bed->app->vms();
  bool trained = false;
  std::size_t tick = 0;
  while (bed->clock.now() + 1e-9 < config.run_end) {
    const double now = bed->clock.now();

    for (Vm* vm : vms) vm->begin_tick();
    bed->injector.apply(now, config.dt);
    bed->app->step(now, config.dt);
    result.slo.record(now, config.dt, bed->app->slo_violated(),
                      bed->app->slo_metric());
    obs::inc(ticks_counter);

    if (tick % sample_every == 0) {
      {
        obs::ScopedTimer timer(stage_monitor);
        for (Vm* vm : vms)
          result.store.record(vm->name(), now, monitor.sample(*vm));
      }
      obs::inc(samples_counter);
      if (!trained && now >= config.train_time) {
        manager->train(0.0, now);
        trained = true;
      }
      manager->on_sample(now);
    }

    bed->clock.advance(Seconds{config.dt});
    ++tick;
  }
  obs::set(sim_time_gauge, bed->clock.now());
  result.vm_count = vms.size();
  result.ticks = tick;
  // Run over: an episode confirmed in the final round has no chance to
  // validate — close everything still open as expired.
  if (config.tracer != nullptr) config.tracer->finish(bed->clock.now());
  // Likewise: pending horizon predictions past the run end never
  // realize an outcome — final drift evaluation + per-horizon gauges.
  if (config.introspect != nullptr)
    config.introspect->finish(bed->clock.now());
  // The tracer's finish() above closed every open episode, flushing any
  // open captures into bundles; now publish the recorder.* metrics.
  if (config.recorder != nullptr) config.recorder->finish();

  // Clamp: a second injection scheduled past the run end (e.g. the
  // quiet-trace configuration) leaves an empty measurement window.
  result.measure_start = std::min(config.fault2_start - 30.0, config.run_end);
  result.measure_end = config.run_end;
  result.violation_time =
      result.slo.violation_time(result.measure_start, result.measure_end);
  result.violation_time_total = result.slo.total_violation_time();
  result.events = bed->events;
  return result;
}

RepeatedResult run_repeated(ScenarioConfig config, std::size_t repeats) {
  PREPARE_CHECK(repeats >= 1);
  RepeatedResult out;
  for (std::size_t r = 0; r < repeats; ++r) {
    config.seed = config.seed + (r == 0 ? 0 : 1);
    const ScenarioResult result = run_scenario(config);
    out.vm_ticks += result.vm_count * result.ticks;
    out.runs.push_back(result.violation_time);
  }
  out.mean = mean_of(out.runs);
  out.stddev = stddev_of(out.runs);
  return out;
}

}  // namespace prepare
