// Shared helpers for the figure-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper: it
// prints the same rows/series the paper reports and writes a CSV next to
// it for plotting.
//
// Output routing: with PREPARE_BENCH_OUT_DIR set, files go there under
// their stable names (CI points each job at its own directory and then
// knows exactly where to look). Without it, files land in
// ./bench_results/ tagged with the pid — two benches running
// concurrently in one working directory must not clobber each other
// (same race tests/temp_path.h solves for the test suite).
#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "core/experiment.h"

namespace prepare::bench {

/// True when CI (or the user) pinned the output directory — stable file
/// names are then wanted so the consumer can find them.
inline bool out_dir_pinned() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): bench mains are single-threaded
  const char* dir = std::getenv("PREPARE_BENCH_OUT_DIR");
  return dir != nullptr && dir[0] != '\0';
}

inline std::string results_dir() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): bench mains are single-threaded
  const char* env = std::getenv("PREPARE_BENCH_OUT_DIR");
  const std::string dir =
      (env != nullptr && env[0] != '\0') ? env : "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Per-process unique output path: `<results_dir>/<stem><ext>` when the
/// out dir is pinned, `<results_dir>/<stem>.<pid><ext>` otherwise.
inline std::string output_path(const std::string& stem,
                               const std::string& ext) {
  if (out_dir_pinned()) return results_dir() + "/" + stem + ext;
  return results_dir() + "/" + stem + "." + std::to_string(::getpid()) + ext;
}

inline std::string csv_path(const std::string& name) {
  return output_path(name, ".csv");
}

/// stress-ng-style throughput accounting: benches count simulated work
/// in VM-ticks (one VM advanced by one simulation step) and report a
/// single comparable rate line at the end:
///
///   bogo-rate: ext_scale: 140400 VM-ticks in 2.31 s (60878.31 VM-ticks/sec)
///
/// Wall time is steady_clock — fine here because bench TUs never feed
/// the deterministic trace (tools/prepare_analyze.py enforces that
/// split).
class ThroughputMeter {
 public:
  ThroughputMeter() : start_(std::chrono::steady_clock::now()) {}

  void add_vm_ticks(std::size_t n) { vm_ticks_ += n; }
  std::size_t vm_ticks() const { return vm_ticks_; }

  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  double rate() const {
    const double s = elapsed_s();
    return s > 0.0 ? static_cast<double>(vm_ticks_) / s : 0.0;
  }

  /// Prints the rate line. Call once, after the timed work.
  void report(const std::string& bench) const {
    std::printf("bogo-rate: %s: %zu VM-ticks in %.2f s (%.2f "
                "VM-ticks/sec)\n",
                bench.c_str(), vm_ticks_, elapsed_s(), rate());
  }

 private:
  std::chrono::steady_clock::time_point start_;
  std::size_t vm_ticks_ = 0;
};

/// Process-wide meter (clock starts at program startup) for benches
/// whose scenario runs are spread across helpers: the helpers add
/// VM-ticks as results come back and main() calls
/// `global_meter.report(<bench>)` once before exiting.
inline ThroughputMeter global_meter;

/// Violation-time comparison (Figs. 6 and 8): one row per app x fault,
/// three scheme columns, mean +/- std over `repeats` seeded runs.
inline void run_violation_comparison(const std::string& figure,
                                     PreventionMode mode,
                                     std::size_t repeats) {
  const char* mode_name =
      mode == PreventionMode::kScalingOnly ? "elastic scaling"
                                           : "live VM migration";
  std::printf("%s: SLO violation time (s) with %s as the prevention "
              "action\n",
              figure.c_str(), mode_name);
  std::printf("%-10s %-12s %22s %22s %22s\n", "app", "fault",
              "without-intervention", "reactive", "PREPARE");

  CsvWriter csv(csv_path(figure),
                {"app", "fault", "scheme", "mean_s", "std_s"});
  ThroughputMeter meter;
  for (AppKind app : {AppKind::kSystemS, AppKind::kRubis}) {
    for (FaultKind fault : {FaultKind::kMemoryLeak, FaultKind::kCpuHog,
                            FaultKind::kBottleneck}) {
      std::printf("%-10s %-12s", app_kind_name(app), fault_kind_name(fault));
      RepeatedResult per_scheme[3];
      const Scheme schemes[3] = {Scheme::kNoIntervention, Scheme::kReactive,
                                 Scheme::kPrepare};
      for (int s = 0; s < 3; ++s) {
        ScenarioConfig config;
        config.app = app;
        config.fault = fault;
        config.scheme = schemes[s];
        config.seed = 1;
        config.prepare.prevention.mode = mode;
        per_scheme[s] = run_repeated(config, repeats);
        meter.add_vm_ticks(per_scheme[s].vm_ticks);
        std::printf(" %12.1f +/- %5.1f", per_scheme[s].mean,
                    per_scheme[s].stddev);
        csv.row(std::vector<std::string>{
            app_kind_name(app), fault_kind_name(fault),
            scheme_name(schemes[s]), format_number(per_scheme[s].mean),
            format_number(per_scheme[s].stddev)});
      }
      const double vs_none =
          per_scheme[0].mean > 0.0
              ? (1.0 - per_scheme[2].mean / per_scheme[0].mean) * 100.0
              : 0.0;
      std::printf("   (PREPARE cuts %.0f%% vs none)\n", vs_none);
    }
  }
  meter.report(figure);
  std::printf("-> %s\n\n", csv_path(figure).c_str());
}

/// SLO-metric trace panels (Figs. 7 and 9): the sampled headline metric
/// around the second injection for all three schemes.
inline void run_trace_panels(const std::string& figure, PreventionMode mode) {
  struct Panel {
    const char* label;
    AppKind app;
    FaultKind fault;
  };
  const Panel panels[] = {
      {"(a) Memory leak (System S)", AppKind::kSystemS,
       FaultKind::kMemoryLeak},
      {"(b) Memory leak (RUBiS)", AppKind::kRubis, FaultKind::kMemoryLeak},
      {"(c) CPU hog (System S)", AppKind::kSystemS, FaultKind::kCpuHog},
      {"(d) CPU hog (RUBiS)", AppKind::kRubis, FaultKind::kCpuHog},
  };
  std::printf("%s: sampled SLO metric traces (%s prevention)\n",
              figure.c_str(),
              mode == PreventionMode::kScalingOnly ? "scaling" : "migration");
  CsvWriter csv(csv_path(figure),
                {"panel", "scheme", "time_s", "slo_metric"});
  ThroughputMeter meter;
  for (const Panel& panel : panels) {
    std::printf("%s — %s\n", panel.label,
                panel.app == AppKind::kSystemS
                    ? "throughput (Ktuples/s), higher is better"
                    : "avg response time (ms), lower is better");
    std::printf("  %8s", "t(s)");
    // Trace window: 60 s before the second injection to 240 s after.
    std::vector<std::vector<double>> series;
    double fault2 = 0.0;
    const Scheme schemes[3] = {Scheme::kNoIntervention, Scheme::kReactive,
                               Scheme::kPrepare};
    for (Scheme scheme : schemes) {
      ScenarioConfig config;
      config.app = panel.app;
      config.fault = panel.fault;
      config.scheme = scheme;
      config.seed = 1;
      config.prepare.prevention.mode = mode;
      const auto result = run_scenario(config);
      meter.add_vm_ticks(result.vm_count * result.ticks);
      fault2 = config.fault2_start;
      std::vector<double> values;
      for (double t = fault2 - 60.0; t <= fault2 + 240.0; t += 10.0) {
        const auto v = result.slo.metric_trace().value_at_or_before(t);
        double metric = v.value_or(0.0);
        metric = panel.app == AppKind::kSystemS ? metric / 1000.0
                                                : metric * 1000.0;
        values.push_back(metric);
        csv.row(std::vector<std::string>{
            panel.label, scheme_name(scheme),
            format_number(t - (fault2 - 60.0)), format_number(metric)});
      }
      series.push_back(std::move(values));
      std::printf(" %12s", scheme_name(scheme));
    }
    std::printf("\n");
    std::size_t index = 0;
    for (double t = fault2 - 60.0; t <= fault2 + 240.0; t += 10.0, ++index) {
      std::printf("  %8.0f", t - (fault2 - 60.0));
      for (const auto& values : series)
        std::printf(" %12.1f", values[index]);
      std::printf("\n");
    }
  }
  meter.report(figure);
  std::printf("-> %s\n\n", csv_path(figure).c_str());
}

}  // namespace prepare::bench
