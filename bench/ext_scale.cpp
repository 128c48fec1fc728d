// Extension: multi-application scalability.
//
// The paper argues PREPARE scales because it keeps one prediction model
// per VM, so "different anomaly prediction models can be distributed on
// different cloud nodes". This bench consolidates K independent
// RUBiS-like applications onto one shared cluster, each with its own
// PREPARE controller (exactly the per-application deployment the paper
// describes), staggers a memory leak into every application's database,
// and reports
//   * SLO protection per application (violation time with PREPARE), and
//   * the management cost per control round as K grows — which should
//     stay linear in the number of VMs (no cross-application coupling).
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/webapp/web_app.h"
#include "bench_util.h"
#include "core/controller.h"
#include "faults/injector.h"
#include "monitor/vm_monitor.h"
#include "sim/clock.h"
#include "sim/cluster.h"
#include "sim/hypervisor.h"
#include "workload/nasa_trace.h"

using namespace prepare;
using namespace prepare::bench;

namespace {

struct AppInstance {
  std::vector<Vm*> vms;
  std::unique_ptr<NasaTraceWorkload> workload;
  std::unique_ptr<WebApp> app;
  FaultInjector injector;
  MetricStore store;
  SloLog slo;
  std::unique_ptr<PrepareController> controller;
  bool trained = false;
};

struct ScaleResult {
  double total_violation_s = 0.0;
  double none_violation_s = 0.0;  // same faults, no management
  double mean_round_us = 0.0;     // controller cost per sampling round
  std::size_t vm_ticks = 0;       // simulated work (VMs x ticks)
};

ScaleResult run_consolidated(std::size_t k, bool managed) {
  SimClock clock;
  Cluster cluster;
  EventLog events;
  Hypervisor hypervisor(&clock, &cluster, &events);
  VmMonitorConfig mcfg;
  VmMonitor monitor(mcfg, 77);

  // Two web-app VMs per host (4 VMs x K apps over 2K hosts) + spares.
  std::vector<std::unique_ptr<AppInstance>> apps;
  std::size_t host_index = 0;
  Host* current_host = nullptr;
  std::size_t on_host = 0;
  auto next_host_slot = [&]() {
    if (current_host == nullptr || on_host == 2) {
      current_host = cluster.add_host("host" + std::to_string(++host_index),
                                      HostCapacity{4.0, 8192.0, 0.2, 512.0});
      on_host = 0;
    }
    ++on_host;
    return current_host;
  };
  for (std::size_t a = 0; a < k; ++a) {
    auto instance = std::make_unique<AppInstance>();
    const char* roles[] = {"web", "app1", "app2", "db"};
    for (int r = 0; r < 4; ++r) {
      instance->vms.push_back(cluster.add_vm(
          "a" + std::to_string(a) + "-" + roles[r], 1.0,
          r == 3 ? 1024.0 : 768.0, next_host_slot()));
    }
    NasaTraceConfig trace;
    trace.base_rate = 60.0;
    instance->workload = std::make_unique<NasaTraceWorkload>(trace, 100 + a);
    instance->app =
        std::make_unique<WebApp>(instance->vms, instance->workload.get());
    // Two leaks in each app's DB, staggered across apps.
    const double offset = static_cast<double>(a) * 20.0;
    instance->injector.add(std::make_unique<MemoryLeakFault>(
        instance->vms[3], 300.0 + offset, 300.0, 2.5));
    instance->injector.add(std::make_unique<MemoryLeakFault>(
        instance->vms[3], 900.0 + offset, 300.0, 2.5));
    if (managed) {
      ControllerContext ctx{instance->app.get(), &cluster, &hypervisor,
                            &instance->store, &instance->slo, &events};
      instance->controller = std::make_unique<PrepareController>(ctx);
    }
    apps.push_back(std::move(instance));
  }
  cluster.add_host("spare1", HostCapacity{4.0, 8192.0, 0.2, 512.0});

  const double kEnd = 1350.0, kDt = 1.0, kSample = 5.0;
  double round_time_us = 0.0;
  std::size_t rounds = 0;
  std::size_t ticks = 0;
  for (std::size_t tick = 0; clock.now() < kEnd; ++tick, ++ticks) {
    const double now = clock.now();
    for (auto& instance : apps) {
      for (Vm* vm : instance->vms) vm->begin_tick();
      instance->injector.apply(now, kDt);
      instance->app->step(now, kDt);
      instance->slo.record(now, kDt, instance->app->slo_violated(),
                           instance->app->slo_metric());
    }
    if (tick % static_cast<std::size_t>(kSample / kDt) == 0) {
      const auto start = std::chrono::steady_clock::now();
      for (auto& instance : apps) {
        for (Vm* vm : instance->vms)
          instance->store.record(vm->name(), now, monitor.sample(*vm));
        if (instance->controller) {
          if (!instance->trained && now >= 700.0) {
            instance->controller->train(0.0, now);
            instance->trained = true;
          }
          instance->controller->on_sample(now);
        }
      }
      round_time_us += std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      ++rounds;
    }
    clock.advance(Seconds{kDt});
  }

  ScaleResult result;
  for (auto& instance : apps)
    result.total_violation_s += instance->slo.violation_time(850.0, kEnd);
  result.mean_round_us = rounds > 0 ? round_time_us / rounds : 0.0;
  result.vm_ticks = 4 * k * ticks;
  return result;
}

/// Parses "1,2,4" into app counts; exits loudly on garbage. Each count
/// is a whole positive decimal token: "1x", "-1" and "" are garbage.
std::vector<std::size_t> parse_apps_list(const std::string& arg) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    std::size_t end = arg.find(',', pos);
    if (end == std::string::npos) end = arg.size();
    const std::string token = arg.substr(pos, end - pos);
    std::size_t k = 0;
    const char* last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, k);
    if (ec != std::errc() || ptr != last || k == 0) {
      std::fprintf(stderr, "ext_scale: bad --apps value '%s'\n",
                   token.c_str());
      // NOLINTNEXTLINE(concurrency-mt-unsafe): arg parsing precedes threads
      std::exit(2);
    }
    out.push_back(k);
    pos = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Default sweep reproduces the scalability table; --apps=1 is a short
  // run that still exercises the whole pipeline.
  std::vector<std::size_t> app_counts = {1, 2, 4, 6};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--apps=";
    if (arg.compare(0, prefix.size(), prefix) == 0) {
      app_counts = parse_apps_list(arg.substr(prefix.size()));
    } else {
      std::fprintf(stderr, "usage: ext_scale [--apps=K1,K2,...]\n");
      return 2;
    }
  }

  std::printf("extension: K consolidated applications, one PREPARE "
              "controller per app\n\n");
  CsvWriter csv(csv_path("ext_scale"),
                {"apps", "vms", "violation_prepare_s", "violation_none_s",
                 "round_cost_us"});
  std::printf("%5s %5s %22s %22s %18s\n", "apps", "VMs",
              "violation (PREPARE, s)", "violation (none, s)",
              "round cost (us)");
  ThroughputMeter meter;
  for (std::size_t k : app_counts) {
    const auto managed = run_consolidated(k, true);
    const auto none = run_consolidated(k, false);
    meter.add_vm_ticks(managed.vm_ticks + none.vm_ticks);
    std::printf("%5zu %5zu %22.1f %22.1f %18.1f\n", k, 4 * k,
                managed.total_violation_s, none.total_violation_s,
                managed.mean_round_us);
    csv.row(std::vector<std::string>{
        std::to_string(k), std::to_string(4 * k),
        format_number(managed.total_violation_s),
        format_number(none.total_violation_s),
        format_number(managed.mean_round_us)});
  }
  std::printf("\n(expected: protection holds for every application and "
              "the per-round management\n cost grows ~linearly with the "
              "VM count — per-VM models do not interact)\n");
  meter.report("ext_scale");
  std::printf("-> %s\n", csv_path("ext_scale").c_str());
  return 0;
}
