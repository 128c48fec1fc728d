// Integration tests: the controllers driving the full simulated testbed
// through short fault scenarios.
#include "core/controller.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/webapp/web_app.h"
#include "core/experiment.h"
#include "faults/injector.h"
#include "monitor/vm_monitor.h"
#include "obs/span_tracer.h"
#include "sim/clock.h"
#include "workload/nasa_trace.h"

namespace prepare {
namespace {

ScenarioConfig base_config(Scheme scheme) {
  ScenarioConfig c;
  c.app = AppKind::kSystemS;
  c.fault = FaultKind::kMemoryLeak;
  c.scheme = scheme;
  c.seed = 11;
  c.prepare.prevention.mode = PreventionMode::kScalingOnly;
  return c;
}

TEST(Controllers, PrepareBeatsNoIntervention) {
  auto none = run_scenario(base_config(Scheme::kNoIntervention));
  auto prep = run_scenario(base_config(Scheme::kPrepare));
  EXPECT_GT(none.violation_time, 60.0);
  EXPECT_LT(prep.violation_time, none.violation_time * 0.5);
}

TEST(Controllers, ReactiveBeatsNoIntervention) {
  auto none = run_scenario(base_config(Scheme::kNoIntervention));
  auto reactive = run_scenario(base_config(Scheme::kReactive));
  EXPECT_LT(reactive.violation_time, none.violation_time * 0.7);
}

TEST(Controllers, PrepareActsOnTheFaultyVm) {
  auto result = run_scenario(base_config(Scheme::kPrepare));
  bool acted_on_faulty = false;
  for (const auto& e : result.events.events()) {
    if (e.kind == EventKind::kPrevention && e.subject == result.faulty_vm &&
        e.time >= 880.0)
      acted_on_faulty = true;
  }
  EXPECT_TRUE(acted_on_faulty);
}

TEST(Controllers, PrepareRaisesAlertsBeforeSecondViolation) {
  auto result = run_scenario(base_config(Scheme::kPrepare));
  // Find the first violation after the second injection start (900).
  double violation_start = 1e18;
  for (const auto& iv : result.slo.intervals())
    if (iv.start >= 880.0) {
      violation_start = iv.start;
      break;
    }
  double first_alert = 1e18;
  for (const auto& e : result.events.events())
    if (e.kind == EventKind::kAlert && e.subject == result.faulty_vm &&
        e.time >= 880.0) {
      first_alert = e.time;
      break;
    }
  ASSERT_LT(first_alert, 1e18);
  // With prevention the violation may never happen at all; if it does,
  // the alert must precede it.
  EXPECT_LT(first_alert, violation_start);
}

TEST(Controllers, ReactiveActsOnlyAfterViolation) {
  auto result = run_scenario(base_config(Scheme::kReactive));
  double first_violation = 1e18;
  for (const auto& iv : result.slo.intervals()) {
    first_violation = iv.start;
    break;
  }
  for (const auto& e : result.events.events()) {
    if (e.kind != EventKind::kPrevention) continue;
    EXPECT_GE(e.time, first_violation);
  }
}

TEST(Controllers, NoInterventionTakesNoActions) {
  auto result = run_scenario(base_config(Scheme::kNoIntervention));
  EXPECT_EQ(result.events.count_of(EventKind::kPrevention), 0u);
  EXPECT_EQ(result.events.count_of(EventKind::kCpuScale), 0u);
  EXPECT_EQ(result.events.count_of(EventKind::kMemScale), 0u);
  EXPECT_EQ(result.events.count_of(EventKind::kMigrationStart), 0u);
}

TEST(Controllers, MigrationModeMigratesFaultyVm) {
  auto config = base_config(Scheme::kPrepare);
  config.prepare.prevention.mode = PreventionMode::kMigrationOnly;
  auto result = run_scenario(config);
  bool migrated_faulty = false;
  for (const auto& e : result.events.events())
    if (e.kind == EventKind::kMigrationDone && e.subject == result.faulty_vm)
      migrated_faulty = true;
  EXPECT_TRUE(migrated_faulty);
}

TEST(Controllers, CpuHogHandledByBothSchemes) {
  auto config = base_config(Scheme::kReactive);
  config.fault = FaultKind::kCpuHog;
  auto reactive = run_scenario(config);
  config.scheme = Scheme::kPrepare;
  auto prep = run_scenario(config);
  config.scheme = Scheme::kNoIntervention;
  auto none = run_scenario(config);
  EXPECT_LT(reactive.violation_time, none.violation_time * 0.3);
  EXPECT_LE(prep.violation_time, reactive.violation_time * 1.5 + 10.0);
}

TEST(Controllers, BottleneckPreventedByScaling) {
  auto config = base_config(Scheme::kPrepare);
  config.fault = FaultKind::kBottleneck;
  auto prep = run_scenario(config);
  config.scheme = Scheme::kNoIntervention;
  auto none = run_scenario(config);
  EXPECT_LT(prep.violation_time, none.violation_time * 0.5);
}

TEST(Controllers, RubisScenariosWork) {
  auto config = base_config(Scheme::kPrepare);
  config.app = AppKind::kRubis;
  for (FaultKind fault :
       {FaultKind::kMemoryLeak, FaultKind::kCpuHog, FaultKind::kBottleneck}) {
    config.fault = fault;
    config.scheme = Scheme::kPrepare;
    auto prep = run_scenario(config);
    config.scheme = Scheme::kNoIntervention;
    auto none = run_scenario(config);
    EXPECT_LT(prep.violation_time, none.violation_time * 0.5)
        << fault_kind_name(fault);
  }
}

/// FNV-1a, folded over `n` bytes into `*h`.
void fnv1a(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= bytes[i];
    *h *= 1099511628211ULL;
  }
}

/// Digest of every EventLog record (time bits, kind, subject, detail).
std::uint64_t event_log_digest(const EventLog& events) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const Event& e : events.events()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e.time, sizeof bits);
    fnv1a(&h, &bits, sizeof bits);
    const int kind = static_cast<int>(e.kind);
    fnv1a(&h, &kind, sizeof kind);
    fnv1a(&h, e.subject.data(), e.subject.size() + 1);
    fnv1a(&h, e.detail.data(), e.detail.size() + 1);
  }
  return h;
}

/// Digest of one run's decision stream: the EventLog digest, folded on
/// over the span JSONL.
std::uint64_t decision_stream_digest(const EventLog& events,
                                     const obs::SpanTracer& tracer) {
  std::uint64_t h = event_log_digest(events);
  std::ostringstream spans;
  tracer.write_spans_jsonl(spans, "pin");
  const std::string text = spans.str();
  fnv1a(&h, text.data(), text.size());
  return h;
}

// Every scheme on all six app x fault cells (seed 11, default
// prevention mode) produces exactly the recorded decision stream. A
// refactor of the controllers must keep these digests; a deliberate
// decision change updates them and says why.
TEST(Controllers, DecisionStreamsArePinned) {
  const Scheme schemes[3] = {Scheme::kNoIntervention, Scheme::kReactive,
                             Scheme::kPrepare};
  const AppKind apps[2] = {AppKind::kSystemS, AppKind::kRubis};
  const FaultKind faults[3] = {FaultKind::kMemoryLeak, FaultKind::kCpuHog,
                               FaultKind::kBottleneck};
  // [scheme][app * 3 + fault]
  // No intervention logs nothing, so its digest is the FNV offset basis.
  const std::uint64_t pinned[3][6] = {
      {0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325,
       0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325},
      {0xf7a63f79d3d28e6f, 0x87ec619aedbda746, 0xbad88adbd5bc35a3,
       0xcef31834b4376b54, 0x67470af6c766a406, 0x0aee99abc02e6869},
      {0xf9d4c3cb72d85d3b, 0xc969f91fb1b9a2f0, 0xb40cb7da2b9f2491,
       0x90e45e2ac06fb230, 0xa242f18cab4a5f03, 0x5707f485498121a5},
  };
  for (int s = 0; s < 3; ++s) {
    for (int a = 0; a < 2; ++a) {
      for (int f = 0; f < 3; ++f) {
        ScenarioConfig config;
        config.app = apps[a];
        config.fault = faults[f];
        config.scheme = schemes[s];
        config.seed = 11;
        obs::SpanTracer tracer;
        config.tracer = &tracer;
        const ScenarioResult result = run_scenario(config);
        const std::uint64_t digest =
            decision_stream_digest(result.events, tracer);
        std::ostringstream hex;
        hex << std::hex << "0x" << digest;
        SCOPED_TRACE(std::string(scheme_name(schemes[s])) + " / " +
                     app_kind_name(apps[a]) + " / " +
                     fault_kind_name(faults[f]) + " -> " + hex.str());
        EXPECT_EQ(digest, pinned[s][a * 3 + f]);
      }
    }
  }
}

// Two RUBiS apps share one cluster and one EventLog, each with its own
// PrepareController in the default prevention mode, wired the way
// bench/ext_scale.cpp wires them: leaks staggered into both databases,
// two VMs per host and one spare host. Each controller may act on its
// own app's VMs only, so the joint decision stream is pinned.
TEST(Controllers, SharedClusterDecisionStreamIsPinned) {
  struct App {
    std::vector<Vm*> vms;
    std::unique_ptr<NasaTraceWorkload> workload;
    std::unique_ptr<WebApp> app;
    FaultInjector injector;
    MetricStore store;
    SloLog slo;
    std::unique_ptr<PrepareController> controller;
  };
  SimClock clock;
  Cluster cluster;
  EventLog events;
  Hypervisor hypervisor(&clock, &cluster, &events);
  VmMonitor monitor(VmMonitorConfig{}, 77);
  const HostCapacity capacity{4.0, 8192.0, 0.2, 512.0};
  std::vector<std::unique_ptr<App>> apps;
  Host* host = nullptr;
  for (std::size_t a = 0; a < 2; ++a) {
    auto app = std::make_unique<App>();
    const char* roles[] = {"web", "app1", "app2", "db"};
    for (int r = 0; r < 4; ++r) {
      if (r % 2 == 0)
        host = cluster.add_host(
            "host" + std::to_string(cluster.hosts().size() + 1), capacity);
      app->vms.push_back(cluster.add_vm(
          "a" + std::to_string(a) + "-" + roles[r], 1.0,
          r == 3 ? 1024.0 : 768.0, host));
    }
    NasaTraceConfig trace;
    trace.base_rate = 60.0;
    app->workload = std::make_unique<NasaTraceWorkload>(trace, 100 + a);
    app->app = std::make_unique<WebApp>(app->vms, app->workload.get());
    const double offset = static_cast<double>(a) * 20.0;
    app->injector.add(std::make_unique<MemoryLeakFault>(
        app->vms[3], 300.0 + offset, 300.0, 2.5));
    app->injector.add(std::make_unique<MemoryLeakFault>(
        app->vms[3], 900.0 + offset, 300.0, 2.5));
    const ControllerContext ctx{app->app.get(), &cluster, &hypervisor,
                                &app->store,    &app->slo, &events};
    app->controller = std::make_unique<PrepareController>(ctx);
    apps.push_back(std::move(app));
  }
  cluster.add_host("spare1", capacity);

  for (std::size_t tick = 0; clock.now() < 1350.0; ++tick) {
    const double now = clock.now();
    for (auto& app : apps) {
      for (Vm* vm : app->vms) vm->begin_tick();
      app->injector.apply(now, 1.0);
      app->app->step(now, 1.0);
      app->slo.record(now, 1.0, app->app->slo_violated(),
                      app->app->slo_metric());
    }
    if (tick % 5 == 0) {
      for (auto& app : apps) {
        for (Vm* vm : app->vms)
          app->store.record(vm->name(), now, monitor.sample(*vm));
        if (!app->controller->trained() && now >= 700.0)
          app->controller->train(0.0, now);
        app->controller->on_sample(now);
      }
    }
    clock.advance(Seconds{1.0});
  }

  // Both apps act, and both keep their SLO after training.
  std::size_t acted[2] = {0, 0};
  for (const Event& e : events.events())
    if (e.kind == EventKind::kPrevention) ++acted[e.subject[1] - '0'];
  EXPECT_GT(acted[0], 0u);
  EXPECT_GT(acted[1], 0u);
  for (const auto& app : apps)
    EXPECT_EQ(app->slo.violation_time(850.0, 1350.0), 0.0);
  const std::uint64_t digest = event_log_digest(events);
  std::ostringstream hex;
  hex << std::hex << "0x" << digest;
  SCOPED_TRACE("shared cluster -> " + hex.str());
  EXPECT_EQ(digest, 0xc049e194d2291b71ULL);
}

TEST(Controllers, ContextValidationThrowsOnNulls) {
  ControllerContext ctx;  // all nulls
  EXPECT_THROW(NoInterventionManager{ctx}, CheckFailure);
}

}  // namespace
}  // namespace prepare
