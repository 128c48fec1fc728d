// Self test of the benchmark driver: on one seed per cell and for every
// scheme, the driver's rebuilt scenario must reproduce run_scenario's
// violation time and event log exactly; with observers attached, also
// its span and evidence JSONL. Exits non-zero if any scenario differs.
#include <cstdio>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "harness.h"

using namespace prepare;

namespace {

/// Observers plus their registry, for one side of a comparison.
struct Observed {
  obs::MetricsRegistry registry;
  perfbench::Observers observers{&registry};

  ScenarioConfig attach(ScenarioConfig config) {
    observers.attach(&config);
    return config;
  }
  std::string jsonl() const {
    std::ostringstream os;
    observers.tracer.write_spans_jsonl(os, "selftest");
    observers.recorder.write_evidence_jsonl(os, "selftest");
    return os.str();
  }
};

/// The first difference between two event logs; empty when equal.
std::string event_difference(const EventLog& a, const EventLog& b) {
  const auto& x = a.events();
  const auto& y = b.events();
  if (x.size() != y.size())
    return "event count " + std::to_string(x.size()) + " vs " +
           std::to_string(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].time != y[i].time || x[i].kind != y[i].kind ||
        x[i].subject != y[i].subject || x[i].detail != y[i].detail)
      return "event " + std::to_string(i) + " differs (" + x[i].subject +
             ": " + x[i].detail + " vs " + y[i].subject + ": " + y[i].detail +
             ")";
  }
  return "";
}

}  // namespace

int main() {
  Logger::set_level(LogLevel::kError);
  int failures = 0, checks = 0;
  const Scheme schemes[] = {Scheme::kNoIntervention, Scheme::kReactive,
                            Scheme::kPrepare};
  for (std::size_t cell = 0; cell < 6; ++cell) {
    for (const Scheme scheme : schemes) {
      for (const bool observed : {false, true}) {
        if (observed && scheme != Scheme::kPrepare) continue;
        const ScenarioConfig base =
            perfbench::cell_config(cell, scheme, 11 + cell);
        Observed ours, theirs;
        const ScenarioConfig mine = observed ? ours.attach(base) : base;
        const ScenarioConfig ref = observed ? theirs.attach(base) : base;
        const perfbench::ScenarioRun run = perfbench::run_driver(mine, nullptr);
        const ScenarioResult expected = run_scenario(ref);

        std::string why = event_difference(run.events, expected.events);
        if (run.violation_time != expected.violation_time)
          why = "violation time " + std::to_string(run.violation_time) +
                " vs " + std::to_string(expected.violation_time);
        if (why.empty() && observed && ours.jsonl() != theirs.jsonl())
          why = "span/evidence JSONL differs";
        if (why.empty() &&
            run.digest != perfbench::decision_digest(expected.events,
                                                     expected.violation_time))
          why = "decision digest differs";
        ++checks;
        std::printf("%-4s %s/%s/%s%s\n", why.empty() ? "ok" : "FAIL",
                    app_kind_name(base.app), fault_kind_name(base.fault),
                    scheme_name(scheme), observed ? "+observers" : "");
        if (!why.empty()) {
          ++failures;
          std::printf("     %s\n", why.c_str());
        }
      }
    }
  }
  std::printf("%d/%d scenarios match run_scenario\n", checks - failures,
              checks);
  return failures == 0 ? 0 : 1;
}
