#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "apps/stream/stream_app.h"
#include "apps/webapp/web_app.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/replay.h"
#include "faults/injector.h"
#include "monitor/vm_monitor.h"
#include "sim/clock.h"
#include "sim/cluster.h"
#include "sim/hypervisor.h"
#include "workload/nasa_trace.h"
#include "workload/patterns.h"

namespace perfbench {

using namespace prepare;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The testbed of core/experiment.cpp, rebuilt from public headers. Keep
// in step with build_testbed() there; the self test fails when the two
// diverge.
constexpr double kStreamBaseRate = 25000.0;
constexpr double kWebBaseRate = 60.0;
constexpr double kStreamRampSlope = 320.0;
constexpr double kStreamRampCap = 118000.0;
constexpr double kWebRampSlope = 0.42;
constexpr double kWebRampCap = 185.0;

struct Testbed {
  SimClock clock;
  Cluster cluster;
  EventLog events;
  std::unique_ptr<Hypervisor> hypervisor;
  std::unique_ptr<CompositeWorkload> workload;
  std::unique_ptr<Application> app;
  FaultInjector injector;
  MetricStore store;
  SloLog slo;
};

void add_ramps_if_bottleneck(CompositeWorkload* w, const ScenarioConfig& c,
                             double slope, double cap) {
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
  bed->cluster.set_metrics(config.metrics);
  bed->events.set_metrics(config.metrics);
  Rng rng(config.seed);

  const bool stream = config.app == AppKind::kSystemS;
  const std::size_t app_vms = stream ? 7 : 4;
  const char* web_names[] = {"vm-web", "vm-app1", "vm-app2", "vm-db"};
  std::vector<Vm*> vms;
  for (std::size_t i = 0; i < app_vms; ++i) {
    Host* host = bed->cluster.add_host("host" + std::to_string(i + 1));
    const std::string name =
        stream ? "vm-pe" + std::to_string(i + 1) : web_names[i];
    const double mem = stream ? 512.0 : (i == 3 ? 1024.0 : 768.0);
    vms.push_back(bed->cluster.add_vm(name, 1.0, mem, host));
  }
  bed->cluster.add_host("spare1");
  bed->cluster.add_host("spare2");
  bed->hypervisor =
      std::make_unique<Hypervisor>(&bed->clock, &bed->cluster, &bed->events);

  bed->workload = std::make_unique<CompositeWorkload>();
  if (stream) {
    bed->workload->add(std::make_unique<ConstantWorkload>(kStreamBaseRate));
    bed->workload->add(std::make_unique<SineWorkload>(0.0, 700.0, 240.0));
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

  Vm* target = nullptr;
  if (stream) {
    target = config.fault == FaultKind::kBottleneck
                 ? vms[5]
                 : vms[static_cast<std::size_t>(rng.uniform_int(1, 4))];
  } else {
    target = vms[3];
  }
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

/// Times `f` into `layers` (when tracing) under `layer`.
template <typename F>
void timed(LayerSamples* layers, Layer layer, F&& f) {
  if (layers == nullptr) {
    f();
    return;
  }
  const auto start = Clock::now();
  f();
  layers->calls[layer].push_back(seconds_since(start));
}

/// True when `r` shows only the replay_episode mismatch known to be a
/// replay limitation, not a program fault. replay_episode re-ranks the
/// diagnosis from the captured tick whose impacts match the recorded
/// ranking. A reactive-path diagnosis (classify_current) can share the
/// ranked attributes' impacts with the predicted tick while an attribute
/// it ruled out (impact <= 0 there) scores positive in the predicted tick.
/// The signature: the only mismatch is a "diagnosis rank" re-rank, the
/// recorded ranking is a positive non-increasing prefix, and the first
/// attribute the re-ranking puts out of place is one the recorded
/// diagnosis does not rank at all. Anything else is a failure.
bool is_reactive_rerank(const obs::EpisodeBundle& bundle,
                        const EpisodeReplayResult& r) {
  if (r.diagnosis_ok || r.score_mismatches != 0 ||
      r.abnormal_mismatches != 0 || r.mode_mismatches != 0 ||
      r.alert_mismatches != 0 || r.filter_mismatches != 0 ||
      r.prevention_mismatches != 0 ||
      r.first_mismatch.rfind("diagnosis rank ", 0) != 0)
    return false;
  const obs::DiagnosisEvidence& d = bundle.diagnosis;
  for (std::size_t k = 0; k < d.ranked.size(); ++k)
    if (d.impacts[k] <= 0.0 || (k > 0 && d.impacts[k] > d.impacts[k - 1]))
      return false;
  const auto at = std::find_if(bundle.ticks.begin(), bundle.ticks.end(),
                               [&](const auto& t) { return t.t == d.t; });
  if (at == bundle.ticks.end()) return false;
  std::vector<std::size_t> order(at->impacts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return at->impacts[a] > at->impacts[b];
  });
  for (std::size_t k = 0; k < d.ranked.size() && k < order.size(); ++k) {
    if (order[k] == d.ranked[k]) continue;
    return std::find(d.ranked.begin(), d.ranked.end(), order[k]) ==
           d.ranked.end();
  }
  return false;
}

void mix_double(std::uint64_t* h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  digest_mix(h, &bits, sizeof bits);
}

}  // namespace

std::unique_ptr<AnomalyManager> make_manager(Scheme scheme,
                                             const ControllerContext& ctx,
                                             const PrepareConfig& config) {
  switch (scheme) {
    case Scheme::kNoIntervention:
      return std::make_unique<NoInterventionManager>(ctx);
    case Scheme::kReactive:
      return std::make_unique<ReactiveController>(ctx, config);
    case Scheme::kPrepare:
      return std::make_unique<PrepareController>(ctx, config);
  }
  PREPARE_CHECK_MSG(false, "unknown scheme");
  return nullptr;
}

ScenarioConfig cell_config(std::size_t index, Scheme scheme,
                           std::uint64_t seed) {
  PREPARE_CHECK(index < 6);
  ScenarioConfig config;
  config.app = index < 3 ? AppKind::kSystemS : AppKind::kRubis;
  config.fault = static_cast<FaultKind>(index % 3);
  config.scheme = scheme;
  config.seed = seed;
  config.prepare.prevention.mode = PreventionMode::kScalingOnly;
  config.num_threads = 1;
  return config;
}

void digest_mix(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= bytes[i];
    *h *= 1099511628211ULL;
  }
}

std::uint64_t decision_digest(const EventLog& events, double violation_time) {
  std::uint64_t h = kDigestSeed;
  for (const Event& e : events.events()) {
    mix_double(&h, e.time);
    const int kind = static_cast<int>(e.kind);
    digest_mix(&h, &kind, sizeof kind);
    digest_mix(&h, e.subject.data(), e.subject.size() + 1);
    digest_mix(&h, e.detail.data(), e.detail.size() + 1);
  }
  mix_double(&h, violation_time);
  return h;
}

void Observers::attach(ScenarioConfig* config) {
  config->metrics = registry;
  config->tracer = &tracer;
  config->introspect = &introspect;
  config->recorder = &recorder;
}

ScenarioRun run_driver(const ScenarioConfig& config, LayerSamples* layers) {
  PREPARE_CHECK(config.dt > 0.0);
  const auto sample_every = static_cast<std::size_t>(
      std::round(config.sampling_interval_s / config.dt));
  PREPARE_CHECK(sample_every >= 1 &&
                std::abs(static_cast<double>(sample_every) * config.dt -
                         config.sampling_interval_s) < 1e-9);

  ScenarioRun run;
  const auto wall_start = Clock::now();
  auto bed = build_testbed(config);

  VmMonitorConfig mcfg;
  mcfg.noise =
      config.monitor_noise * std::sqrt(5.0 / config.sampling_interval_s);
  if (config.graybox_memory)
    mcfg.memory_source = MemorySource::kGrayboxInference;
  VmMonitor monitor(mcfg, config.seed + 1000);

  ControllerContext ctx;
  ctx.app = bed->app.get();
  ctx.cluster = &bed->cluster;
  ctx.hypervisor = bed->hypervisor.get();
  ctx.store = &bed->store;
  ctx.slo = &bed->slo;
  ctx.log = &bed->events;
  ctx.metrics = config.metrics;
  ctx.tracer = config.tracer;
  ctx.introspect = config.introspect;
  ctx.recorder = config.recorder;
  ctx.num_threads = config.num_threads;
  PrepareConfig pcfg = config.prepare;
  pcfg.sampling_interval_s = config.sampling_interval_s;
  const auto manager = make_manager(config.scheme, ctx, pcfg);

  const auto vms = bed->app->vms();
  bool trained = false;
  std::size_t tick = 0;
  run.round_s.reserve(static_cast<std::size_t>(
      (config.run_end - config.train_time) / config.sampling_interval_s) + 1);
  while (bed->clock.now() + 1e-9 < config.run_end) {
    const double now = bed->clock.now();
    timed(layers, kBeginTick, [&] {
      for (Vm* vm : vms) vm->begin_tick();
    });
    timed(layers, kFaultsApply, [&] { bed->injector.apply(now, config.dt); });
    timed(layers, kAppsStep, [&] { bed->app->step(now, config.dt); });
    timed(layers, kSloRecord, [&] {
      bed->slo.record(now, config.dt, bed->app->slo_violated(),
                      bed->app->slo_metric());
    });

    if (tick % sample_every == 0) {
      timed(layers, kMonitorSample, [&] {
        for (Vm* vm : vms)
          bed->store.record(vm->name(), now, monitor.sample(*vm));
      });
      if (!trained && now >= config.train_time) {
        const auto start = Clock::now();
        manager->train(0.0, now);
        run.train_s = seconds_since(start);
        if (layers != nullptr) layers->calls[kTrain].push_back(run.train_s);
        trained = true;
      }
      const auto start = Clock::now();
      manager->on_sample(now);
      const double round = seconds_since(start);
      if (layers != nullptr) layers->calls[kOnSample].push_back(round);
      if (trained) run.round_s.push_back(round);
      ++run.rounds;
    }
    bed->clock.advance(Seconds{config.dt});
    ++tick;
  }

  const double end = bed->clock.now();
  timed(layers, kObsFinish, [&] {
    if (config.tracer != nullptr) config.tracer->finish(end);
    if (config.introspect != nullptr) config.introspect->finish(end);
    if (config.recorder != nullptr) config.recorder->finish();
  });
  timed(layers, kObsExport, [&] {
    std::ostringstream os;
    const std::string run_id = std::string(app_kind_name(config.app)) + "-" +
                               std::to_string(config.seed);
    if (config.tracer != nullptr) config.tracer->write_spans_jsonl(os, run_id);
    if (config.recorder != nullptr)
      config.recorder->write_evidence_jsonl(os, run_id);
    run.export_bytes = os.str().size();
  });
  run.wall_s = seconds_since(wall_start);
  run.vms = vms.size();
  run.vm_ticks = vms.size() * tick;

  const double measure_start = std::min(config.fault2_start - 30.0,
                                        config.run_end);
  run.violation_time = bed->slo.violation_time(measure_start, config.run_end);
  run.digest = decision_digest(bed->events, run.violation_time);
  run.events = bed->events;

  if (config.recorder != nullptr) {
    for (const auto& bundle : config.recorder->bundles()) {
      const auto start = Clock::now();
      const EpisodeReplayResult replay = replay_episode(bundle);
      run.replay_s.push_back(seconds_since(start));
      if (!replay.ok) {
        const bool diagnosis_only = is_reactive_rerank(bundle, replay);
        ++(diagnosis_only ? run.replay_diagnosis_mismatches
                          : run.replay_failures);
        std::fprintf(stderr,
                     "perfbench: %s seed %llu: replay of episode %s (%s) "
                     "%s: %s\n",
                     app_kind_name(config.app),
                     static_cast<unsigned long long>(config.seed),
                     bundle.trace_id.c_str(), bundle.vm.c_str(),
                     diagnosis_only ? "differs in the diagnosis re-ranking"
                                    : "failed",
                     replay.first_mismatch.c_str());
      }
    }
  }
  return run;
}

}  // namespace perfbench
