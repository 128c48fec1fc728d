// Command-line experiment runner: the whole harness behind flags.
//
//   prepare_cli --app rubis --fault memory_leak --scheme prepare
//               --mode scaling --seed 3 --repeats 5 --export /tmp/run
//
// Prints the SLO violation time (mean +/- std over --repeats seeded
// runs) and, with --export, writes the last run's metric and SLO traces
// as CSV for offline analysis / replay through the accuracy harness.
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "core/replay.h"
#include "monitor/trace_io.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/model_introspect.h"
#include "obs/span_tracer.h"
#include "obs/stage_profiler.h"
#include "obs/trace_export.h"
#include "report/report.h"

using namespace prepare;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --app system_s|rubis          (default system_s)\n"
      "  --fault memory_leak|cpu_hog|bottleneck\n"
      "  --second-fault <kind>         (default: same as --fault)\n"
      "  --scheme none|reactive|prepare (default prepare)\n"
      "  --mode scaling|migration|auto (prevention action; default scaling)\n"
      "  --seed N                      (default 1)\n"
      "  --repeats N                   (default 1)\n"
      "  --sampling S                  (seconds; default 5)\n"
      "  --export PREFIX               (write PREFIX_metrics.csv, "
      "PREFIX_slo.csv)\n"
      "  --replay PREFIX               (offline: load PREFIX_metrics.csv/"
      "PREFIX_slo.csv,\n                                 print the alert "
      "timeline, run nothing)\n"
      "  --report FILE.html            (write an HTML report of the last "
      "run)\n"
      "  --obs-out FILE.jsonl          (write the last run's structured "
      "trace:\n                                 run header, events, metric/"
      "histogram snapshots)\n"
      "  --obs-summary                 (print the per-stage overhead table, "
      "alert-quality\n                                 gauges, the model "
      "calibration/drift summary, and\n                                 the "
      "flight-recorder bundle/ring statistics)\n"
      "  --record-episodes             (attach the episode flight recorder: "
      "capture\n                                 decision-evidence bundles "
      "for the last run and\n                                 export them "
      "with --obs-out as episode_evidence records)\n"
      "  --verify-episodes             (replay every captured bundle offline "
      "and check\n                                 each decision is "
      "bit-identical to the live run;\n                                 "
      "implies --record-episodes, exit 1 on mismatch)\n"
      "  --explain-episode TRACE_ID    (print the decision timeline of one "
      "captured\n                                 episode; implies "
      "--record-episodes)\n"
      "  --what-if policy=MODE         (scaling|migration|auto: re-derive "
      "the prevention\n                                 decisions of the "
      "captured episodes under MODE and\n                                 "
      "report divergences; implies --record-episodes)\n"
      "  --serve-metrics PORT          (serve GET /metrics + /healthz on "
      "127.0.0.1:PORT\n                                 during the run, "
      "Prometheus text format; 0 picks\n                                 a "
      "free port)\n"
      "  --serve-hold-s SEC            (keep serving SEC seconds after the "
      "runs finish;\n                                 SIGINT/SIGTERM ends the "
      "hold early)\n",
      argv0);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): usage error precedes threads
  std::exit(2);
}

AppKind parse_app(const std::string& s, const char* argv0) {
  if (s == "system_s") return AppKind::kSystemS;
  if (s == "rubis") return AppKind::kRubis;
  usage(argv0);
}

FaultKind parse_fault(const std::string& s, const char* argv0) {
  if (s == "memory_leak") return FaultKind::kMemoryLeak;
  if (s == "cpu_hog") return FaultKind::kCpuHog;
  if (s == "bottleneck") return FaultKind::kBottleneck;
  usage(argv0);
}

/// All of `s` as a number in [lo, hi], which also keeps out NaN and
/// infinities; usage() otherwise. Unlike std::stoull, no sign on an
/// unsigned type, and no leading space or trailing text.
template <typename T>
T parse_number(const std::string& s, T lo, T hi, const char* argv0) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) usage(argv0);
  return v;
}

volatile std::sig_atomic_t g_interrupted = 0;

void on_signal(int /*signum*/) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
  ScenarioConfig config;
  std::size_t repeats = 1;
  std::optional<std::string> export_prefix;
  std::optional<std::string> replay_prefix;
  std::optional<std::string> report_path;
  std::optional<std::string> obs_out;
  bool obs_summary = false;
  bool record_episodes = false;
  bool verify_episodes = false;
  std::optional<std::string> explain_episode;
  std::optional<int> what_if;
  std::optional<int> serve_port;
  double serve_hold_s = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--app") {
      config.app = parse_app(value(), argv[0]);
    } else if (arg == "--fault") {
      config.fault = parse_fault(value(), argv[0]);
    } else if (arg == "--second-fault") {
      config.second_fault = parse_fault(value(), argv[0]);
    } else if (arg == "--scheme") {
      const std::string s = value();
      if (s == "none") config.scheme = Scheme::kNoIntervention;
      else if (s == "reactive") config.scheme = Scheme::kReactive;
      else if (s == "prepare") config.scheme = Scheme::kPrepare;
      else usage(argv[0]);
    } else if (arg == "--mode") {
      const std::string s = value();
      if (s == "scaling")
        config.prepare.prevention.mode = PreventionMode::kScalingOnly;
      else if (s == "migration")
        config.prepare.prevention.mode = PreventionMode::kMigrationOnly;
      else if (s == "auto")
        config.prepare.prevention.mode =
            PreventionMode::kScalingThenMigration;
      else usage(argv[0]);
    } else if (arg == "--seed") {
      config.seed = parse_number<std::uint64_t>(
          value(), 0, std::numeric_limits<std::uint64_t>::max(), argv[0]);
    } else if (arg == "--repeats") {
      repeats = parse_number<std::size_t>(
          value(), 1, std::numeric_limits<std::size_t>::max(), argv[0]);
    } else if (arg == "--sampling") {
      config.sampling_interval_s = parse_number(
          value(), std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(), argv[0]);
    } else if (arg == "--export") {
      export_prefix = value();
    } else if (arg == "--replay") {
      replay_prefix = value();
    } else if (arg == "--report") {
      report_path = value();
    } else if (arg == "--obs-out") {
      obs_out = value();
    } else if (arg == "--obs-summary") {
      obs_summary = true;
    } else if (arg == "--record-episodes") {
      record_episodes = true;
    } else if (arg == "--verify-episodes") {
      verify_episodes = true;
    } else if (arg == "--explain-episode") {
      explain_episode = value();
    } else if (arg == "--what-if") {
      std::string s = value();
      if (s.rfind("policy=", 0) == 0) s = s.substr(7);
      if (s == "scaling") what_if = 0;
      else if (s == "migration") what_if = 1;
      else if (s == "auto") what_if = 2;
      else usage(argv[0]);
    } else if (arg == "--serve-metrics") {
      serve_port = parse_number(value(), 0, 65535, argv[0]);
    } else if (arg == "--serve-hold-s") {
      serve_hold_s = parse_number(value(), 0.0,
                                  std::numeric_limits<double>::max(), argv[0]);
    } else {
      usage(argv[0]);
    }
  }

  if (replay_prefix) {
    const auto store =
        load_metric_store_csv(*replay_prefix + "_metrics.csv");
    const auto slo = load_slo_log_csv(*replay_prefix + "_slo.csv");
    const auto report = replay_trace(store, slo, ReplayConfig{});
    std::printf("replay of %s: %zu raw alerts, %zu confirmed\n",
                replay_prefix->c_str(), report.raw_alerts,
                report.confirmed_alerts);
    for (const auto& alert : report.alerts) {
      if (!alert.confirmed) continue;
      std::printf("  %7.1f s  %-10s score %6.2f  metrics:", alert.time,
                  alert.vm.c_str(), alert.score);
      for (Attribute a : alert.top_metrics)
        std::printf(" %s", attribute_name(a).c_str());
      std::printf("\n");
    }
    return 0;
  }

  try {
    check_scenario_config(config);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("app=%s fault=%s", app_kind_name(config.app),
              fault_kind_name(config.fault));
  if (config.second_fault)
    std::printf(" second_fault=%s", fault_kind_name(*config.second_fault));
  std::printf(" scheme=%s seed=%llu repeats=%zu\n",
              scheme_name(config.scheme),
              static_cast<unsigned long long>(config.seed), repeats);

  // The forensic sub-commands all consume bundles, so each implies the
  // recorder.
  record_episodes = record_episodes || verify_episodes ||
                    explain_episode.has_value() || what_if.has_value();

  obs::MetricsRegistry registry;
  const bool observe = obs_out.has_value() || obs_summary ||
                       serve_port.has_value() || record_episodes;

  obs::MetricsHttpServer server(&registry);
  if (serve_port) {
    // Start before the runs so a scraper sees the pipeline live; a
    // signal ends the post-run hold (and a hung scrape session) early.
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    if (!server.start(*serve_port)) {
      std::fprintf(stderr, "cannot serve metrics on port %d\n", *serve_port);
      return 1;
    }
    std::printf("serving metrics on port %d\n", server.port());
    std::fflush(stdout);
  }

  std::vector<double> runs;
  ScenarioResult last;
  std::optional<obs::SpanTracer> tracer;
  std::optional<obs::ModelIntrospect> introspect;
  std::optional<obs::FlightRecorder> recorder;
  std::uint64_t last_seed = config.seed;
  for (std::size_t r = 0; r < repeats; ++r) {
    ScenarioConfig c = config;
    c.seed = config.seed + r;
    last_seed = c.seed;
    if (observe) {
      registry.reset();  // the exported trace covers the last run only
      c.metrics = &registry;
      tracer.emplace(&registry);  // episodes are per-run
      c.tracer = &*tracer;
      introspect.emplace(&registry);  // calibration state is per-run
      c.introspect = &*introspect;
      if (record_episodes) {
        recorder.emplace(&registry);  // bundles are per-run
        c.recorder = &*recorder;
      }
    }
    last = run_scenario(c);
    runs.push_back(last.violation_time);
    std::printf("  run %zu (seed %llu): SLO violation %.1f s (faulty %s)\n",
                r + 1, static_cast<unsigned long long>(c.seed),
                last.violation_time, last.faulty_vm.c_str());
  }
  std::printf("violation time: mean %.1f s, std %.1f s\n", mean_of(runs),
              stddev_of(runs));

  int exit_code = 0;
  if (recorder) {
    const auto& bundles = recorder->bundles();
    if (!obs_summary)
      std::printf(
          "episode bundles (last run): %zu captured, %zu dropped, "
          "ring high water %zu\n",
          recorder->bundles_emitted(), recorder->dropped_total(),
          recorder->ring_high_water());
    if (verify_episodes) {
      std::size_t failed = 0;
      for (const auto& bundle : bundles) {
        const auto res = replay_episode(bundle);
        if (!res.ok) {
          ++failed;
          std::printf("  REPLAY MISMATCH %s: %s\n", bundle.trace_id.c_str(),
                      res.first_mismatch.c_str());
        }
      }
      std::printf("replay verification: %zu/%zu bundles bit-identical\n",
                  bundles.size() - failed, bundles.size());
      if (failed != 0) exit_code = 1;
    }
    if (what_if) {
      // Annotate before --obs-out runs so the counterfactual records are
      // exported alongside the evidence they re-executed.
      static const char* kModeNames[] = {"scaling", "migration", "auto"};
      for (const auto& bundle : bundles) {
        if (explain_episode && bundle.trace_id != *explain_episode) continue;
        const auto wi = what_if_policy(bundle, *what_if);
        obs::CounterfactualNote note;
        note.policy = wi.policy;
        note.compared = wi.compared;
        note.diverged = wi.diverged;
        note.detail = wi.detail;
        recorder->annotate_counterfactual(bundle.trace_id, note);
        std::printf("what-if policy=%s on %s: %zu/%zu decisions diverge",
                    kModeNames[*what_if], bundle.trace_id.c_str(),
                    wi.diverged, wi.compared);
        if (!wi.detail.empty())
          std::printf(" (first: %s)", wi.detail.c_str());
        std::printf("\n");
      }
    }
    if (explain_episode) {
      const obs::EpisodeBundle* found = nullptr;
      for (const auto& bundle : bundles)
        if (bundle.trace_id == *explain_episode) {
          found = &bundle;
          break;
        }
      if (found == nullptr) {
        std::fprintf(stderr, "no captured episode with trace id %s;",
                     explain_episode->c_str());
        std::fprintf(stderr, " captured:");
        for (const auto& bundle : bundles)
          std::fprintf(stderr, " %s", bundle.trace_id.c_str());
        std::fprintf(stderr, "\n");
        exit_code = 1;
      } else {
        const auto& b = *found;
        std::printf(
            "\nepisode %s (%s): open %.1f s, close %.1f s, outcome %s, "
            "%zu ticks (%zu pre-context, %zu truncated)\n",
            b.trace_id.c_str(), b.vm.c_str(), b.t_open, b.t_close,
            b.outcome.c_str(), b.ticks.size(), b.pre_ticks,
            b.truncated_ticks);
        for (std::size_t s = 0; s < b.ticks.size(); ++s) {
          const auto& tick = b.ticks[s];
          std::size_t top = 0;
          for (std::size_t i = 1; i < tick.impacts.size(); ++i)
            if (tick.impacts[i] > tick.impacts[top]) top = i;
          std::printf(
              "  %-7s %7.1f s  score %+8.3f  %s%s%s top %s (L=%.2f)\n",
              s < b.pre_ticks ? "pre" : "episode", tick.t, tick.score,
              tick.abnormal ? "abnormal " : "normal   ",
              tick.raw_alert ? "raw " : "    ",
              tick.confirmed ? "confirmed " : "          ",
              top < b.layout.attribute_names.size()
                  ? b.layout.attribute_names[top].c_str()
                  : "?",
              tick.impacts.empty() ? 0.0 : tick.impacts[top]);
        }
        if (b.diagnosis.valid) {
          std::printf("  diagnosis at %.1f s:", b.diagnosis.t);
          for (std::size_t r = 0; r < b.diagnosis.ranked.size(); ++r)
            std::printf(
                " %s(%.2f)",
                b.diagnosis.ranked[r] < b.layout.attribute_names.size()
                    ? b.layout.attribute_names[b.diagnosis.ranked[r]].c_str()
                    : "?",
                b.diagnosis.impacts[r]);
          std::printf("\n");
        }
        static const char* kPhases[] = {"initial", "companion", "fallback"};
        static const char* kApplied[] = {"none", "scale", "migrate"};
        for (const auto& p : b.preventions)
          std::printf(
              "  prevention %7.1f s  %-9s on %s: scale %s, migrate %s "
              "-> %s\n",
              p.t, kPhases[p.phase % 3],
              p.attribute < b.layout.attribute_names.size()
                  ? b.layout.attribute_names[p.attribute].c_str()
                  : "?",
              p.scale_possible ? "possible" : "blocked",
              p.migrate_possible ? "possible" : "blocked",
              kApplied[p.applied % 3]);
      }
    }
  }

  if (report_path) {
    ReportInput report;
    report.store = &last.store;
    report.slo = &last.slo;
    report.events = &last.events;
    report.title = std::string(app_kind_name(config.app)) + " / " +
                   fault_kind_name(config.fault) + " / " +
                   scheme_name(config.scheme);
    try {
      write_html_report(report, *report_path);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("report written to %s\n", report_path->c_str());
  }
  if (export_prefix) {
    const std::string metrics = *export_prefix + "_metrics.csv";
    const std::string slo = *export_prefix + "_slo.csv";
    try {
      save_metric_store_csv(last.store, metrics);
      save_slo_log_csv(last.slo, slo);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("exported %s and %s\n", metrics.c_str(), slo.c_str());
  }
  if (obs_out) {
    // Deterministic run id (no wall clock): scenario + last seed.
    const std::string run_id = std::string(app_kind_name(config.app)) + "-" +
                               fault_kind_name(config.fault) + "-" +
                               scheme_name(config.scheme) + "-seed" +
                               std::to_string(last_seed);
    std::ofstream os(*obs_out);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", obs_out->c_str());
      return 1;
    }
    obs::RunInfo info;
    info.run_id = run_id;
    info.sim_time_end = config.run_end;
    info.labels = {{"app", app_kind_name(config.app)},
                   {"fault", fault_kind_name(config.fault)},
                   {"scheme", scheme_name(config.scheme)},
                   {"seed", std::to_string(last_seed)}};
    obs::write_run_header(os, info);
    last.events.to_jsonl(os, run_id);
    if (tracer) tracer->write_spans_jsonl(os, run_id);
    if (introspect) introspect->write_introspection_jsonl(os, run_id);
    if (recorder) recorder->write_evidence_jsonl(os, run_id);
    obs::write_metrics_jsonl(os, registry, run_id, config.run_end);
    // A full disk or a closed pipe shows only once the buffer is flushed.
    os.flush();
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", obs_out->c_str());
      return 1;
    }
    std::printf("structured trace written to %s (run_id %s)\n",
                obs_out->c_str(), run_id.c_str());
  }
  if (tracer) {
    const auto& ledger = tracer->ledger();
    std::printf(
        "alert outcomes (last run): %zu prevented, %zu false alarms, "
        "%zu escalated, %zu expired, %zu missed, %zu suppressed\n",
        ledger.prevented, ledger.false_alarm, ledger.escalated,
        ledger.expired, ledger.missed, ledger.suppressed);
  }
  if (obs_summary) {
    std::printf("\nper-stage overhead (last run):\n");
    std::ostringstream table;
    obs::write_stage_report(registry, table);
    std::fputs(table.str().c_str(), stdout);

    // Outcome-ledger quality gauges (published by the span tracer at
    // finish); absent when the scheme raised no alerts.
    const auto snapshot = registry.snapshot();
    std::printf("\nalert quality (last run):\n");
    for (const char* name : {"alert.precision", "alert.recall",
                             "alert.prevention_effectiveness"}) {
      const auto it = snapshot.gauges.find(name);
      if (it != snapshot.gauges.end())
        std::printf("  %-30s %.3f\n", name, it->second);
    }

    if (introspect) {
      std::ostringstream cal;
      introspect->write_summary(cal);
      std::fputs(cal.str().c_str(), stdout);
    }

    if (recorder) {
      std::printf("\nepisode flight recorder (last run):\n");
      std::printf("  %-30s %zu\n", "bundles emitted",
                  recorder->bundles_emitted());
      std::printf("  %-30s %zu\n", "bundles dropped (cap)",
                  recorder->dropped_total());
      std::printf("  %-30s %zu\n", "ticks recorded",
                  recorder->ticks_recorded());
      std::printf("  %-30s %zu\n", "ticks truncated",
                  recorder->truncated_ticks_total());
      std::printf("  %-30s %zu / %zu\n", "ring high water",
                  recorder->ring_high_water(), recorder->config().ring_ticks);
    }
  }
  if (serve_port) {
    if (serve_hold_s > 0.0 && g_interrupted == 0) {
      std::printf("holding metrics endpoint for %.0f s (Ctrl-C to stop)\n",
                  serve_hold_s);
      std::fflush(stdout);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(serve_hold_s);
      while (g_interrupted == 0 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
  }
  return exit_code;
}
