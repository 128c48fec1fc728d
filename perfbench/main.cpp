// Repo benchmark driver: whole PREPARE scenarios, timed layer by layer.
//
//   perfbench_driver --workload prepare|reactive|observed --seed N
//                    --seconds S --trace 0|1
//
// Scenario j of a run uses seed N+j and cell (N+j) mod 6 of {System S,
// RUBiS} x {memory leak, CPU hog, bottleneck}. The timed phase runs whole
// cycles of six scenarios until S seconds have passed (and at least
// kMinCycles cycles). --trace 0 prints the end-to-end metrics; --trace 1
// runs every cycle twice, untraced and traced, and prints the per-layer
// metrics. Every scenario is then re-run through run_scenario, outside
// any timing, and its decision digest compared. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Steadiness on a shared host: every kPinCycles cycles the process pins
// itself to the CPU on which a reference kernel shaped like the Markov
// look-ahead runs fastest, and every scenario's times are normalised by
// that kernel, run just before each scenario on the same CPU.
// The report lines show the values as measured next to the normalisation
// factor.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "harness.h"
#include "obs/stage_profiler.h"

using namespace prepare;
using perfbench::LayerSamples;
using perfbench::ScenarioRun;

namespace {

using Clock = std::chrono::steady_clock;

/// Cycles every run makes at least; the decision digest and violation_s
/// cover exactly these scenarios, so they do not depend on timing.
constexpr std::size_t kMinCycles = 40;
constexpr std::size_t kCells = 6;
/// Cycles between two re-pinnings (see pin_to_fastest_cpu()).
constexpr std::size_t kPinCycles = 2;
/// Set-up (one warm-up cycle) is repeated this often; setup_s takes the
/// median.
constexpr std::size_t kSetupRepeats = 3;
/// Reference kernel time of the host the timings are normalised to; see
/// reference_seconds().
constexpr double kReferenceNominalS = 200e-6;
/// The look-ahead of one System S round: 7 VMs x 13 attributes, each a
/// 2-dependent Markov chain over 5 bins pushed 24 steps (120 s ahead at
/// 5 s sampling).
constexpr std::size_t kRefChains = 7 * 13, kRefBins = 5, kRefSteps = 24;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "prepare|reactive|observed --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0.0))
        usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      o.trace = value == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || (o.workload != "prepare" && o.workload != "reactive" &&
                         o.workload != "observed"))
    usage("--workload must be prepare, reactive or observed");
  return o;
}

// ------------------------------------------------------------- statistics

/// Nearest-rank quantile of `v` (sorted in place).
double quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  return (*v)[std::min(v->size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) { return quantile(&v, 0.5); }

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// A fixed kernel owned by the benchmark, not by src/: the arithmetic of
/// one System S round's Markov look-ahead (kRefChains chains, each pushed
/// kRefSteps steps through its own 25 x 5 transition table, skipping
/// zero-mass states as the program does) on tables drawn once from a fixed
/// seed. Timed three times; returns the median. The host is shared, and
/// how fast it runs this program drifts by 20-60% over minutes; a kernel
/// of the same shape slows down with it. Every timing is scaled by
/// kReferenceNominalS / (the kernel time measured just before its
/// scenario), i.e. reported as if on a host where the kernel takes
/// kReferenceNominalS. Not inlined, so that its loops keep one layout
/// (see the alignment flag in CMakeLists.txt).
__attribute__((noinline)) double reference_seconds() {
  constexpr std::size_t kPairs = kRefBins * kRefBins;
  static std::vector<double> probs;
  if (probs.empty()) {
    Rng rng(7);
    probs.resize(kRefChains * kPairs * kRefBins);
    for (std::size_t row = 0; row < kRefChains * kPairs; ++row) {
      double* p = &probs[row * kRefBins];
      double sum = 0.0;
      for (std::size_t c = 0; c < kRefBins; ++c) {
        // About one cell in seven is empty, as in sparse trained rows.
        p[c] = rng.chance(1.0 / 7.0) ? 0.0 : rng.uniform(1.0, 14.0);
        sum += p[c];
      }
      if (sum == 0.0) p[0] = sum = 1.0;
      for (std::size_t c = 0; c < kRefBins; ++c) p[c] /= sum;
    }
  }
  std::vector<double> v(kPairs), next(kPairs);
  std::vector<double> times;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    for (std::size_t chain = 0; chain < kRefChains; ++chain) {
      const double* table = &probs[chain * kPairs * kRefBins];
      std::fill(v.begin(), v.end(), 0.0);
      v[chain % kPairs] = 1.0;
      for (std::size_t s = 0; s < kRefSteps; ++s) {
        std::fill(next.begin(), next.end(), 0.0);
        for (std::size_t ab = 0; ab < kPairs; ++ab) {
          const double mass = v[ab];
          if (mass <= 0.0) continue;
          // (a, b) -> (b, c): the destination pairs (b, .) are contiguous.
          const std::size_t dst = (ab % kRefBins) * kRefBins;
          for (std::size_t c = 0; c < kRefBins; ++c)
            next[dst + c] += mass * table[ab * kRefBins + c];
        }
        std::swap(v, next);
      }
      sink = sink + v[0];
    }
    times.push_back(seconds_since(start));
  }
  return median(times);
}

/// Pins the process to the allowed CPU on which the reference kernel runs
/// fastest right now. Pinned, a scenario runs on the CPU its reference
/// measurement ran on. On a shared host the vCPUs are not equally
/// contended, and which one is best changes over minutes, so this is
/// repeated every kPinCycles cycles. Leaves the affinity alone where it
/// cannot be read or set.
void pin_to_fastest_cpu() {
  static cpu_set_t allowed;
  static bool have_allowed = false;
  if (!have_allowed) {
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    have_allowed = true;
  }
  int best = -1;
  double best_s = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double s = reference_seconds();
    if (best < 0 || s < best_s) {
      best = cpu;
      best_s = s;
    }
  }
  if (best < 0) {
    sched_setaffinity(0, sizeof allowed, &allowed);
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// Cost of one steady_clock read pair, the overhead every traced span
/// adds: the median over blocks of back-to-back pairs.
double timer_pair_seconds() {
  constexpr int kBlocks = 31, kPairs = 2000;
  std::vector<double> per_pair;
  volatile double sink = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      const auto t0 = Clock::now();
      const auto t1 = Clock::now();
      sink = sink + std::chrono::duration<double>(t1 - t0).count();
    }
    per_pair.push_back(seconds_since(start) / kPairs);
  }
  return median(per_pair);
}

// -------------------------------------------------------------- env block

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_env(const Options& o) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf(
      "env {\"compiler\": \"%s\", \"build_type\": \"%s\", \"cxx_flags\": "
      "\"%s\", \"optimized\": %s, \"ndebug\": %s, \"cpu\": \"%s\", "
      "\"nproc\": %ld, \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d}\n",
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(PERFBENCH_CXX_FLAGS).c_str(), optimized ? "true" : "false",
      ndebug ? "true" : "false", json_escape(cpu_model()).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), o.workload.c_str(), o.seed, o.seconds,
      o.trace ? 1 : 0);
}

// --------------------------------------------------------------- workload

struct Workload {
  Scheme scheme = Scheme::kPrepare;
  bool observed = false;
  std::uint64_t seed = 1;

  ScenarioConfig config(std::size_t j) const {
    const std::uint64_t s = seed + j;
    return perfbench::cell_config(static_cast<std::size_t>(s % kCells),
                                  scheme, s);
  }
};

/// One timed phase's accumulators (all scenarios of one kind: untraced or
/// traced). Times are normalised per scenario by the reference kernel
/// measured just before it (see reference_seconds()).
struct Phase {
  std::size_t runs = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;       ///< as measured
  double norm_wall_s = 0.0;  ///< normalised
  std::size_t vm_ticks = 0;
  /// Wall time of each trained management round divided by the app's VM
  /// count: System S has 7 VMs and RUBiS 4, so whole rounds form two
  /// modes of equal weight and their median would fall between them.
  std::vector<double> vm_round_s;
  std::vector<double> vm_train_s;  ///< train() wall time / VMs, likewise
  std::vector<double> scale;       ///< normalisation factor per scenario
  std::size_t rounds = 0;
  std::size_t replay_failures = 0;
  std::size_t replay_diagnosis_mismatches = 0;
  std::vector<double> replay_s;  ///< per replayed bundle
  std::size_t export_bytes = 0;
  /// Every scenario this phase completed, in run order.
  struct Outcome {
    std::size_t j = 0;
    std::uint64_t digest = 0;
    double violation = 0.0;
  };
  std::vector<Outcome> outcomes;

  double rate() const {
    return norm_wall_s > 0.0 ? static_cast<double>(vm_ticks) / norm_wall_s
                             : 0.0;
  }
  double raw_rate() const {
    return wall_s > 0.0 ? static_cast<double>(vm_ticks) / wall_s : 0.0;
  }
};

/// Runs scenario j of `w`, with a registry (and, for `observed`, fresh
/// observers) when `registry` is non-null, timing every layer into
/// `layers` when non-null.
void run_one(const Workload& w, std::size_t j, obs::MetricsRegistry* registry,
             LayerSamples* layers, Phase* phase) {
  ScenarioConfig config = w.config(j);
  config.metrics = registry;
  std::optional<perfbench::Observers> observers;
  if (w.observed) observers.emplace(registry).attach(&config);
  ++phase->runs;
  const double scale = kReferenceNominalS / reference_seconds();
  try {
    const ScenarioRun run = perfbench::run_driver(config, layers);
    phase->wall_s += run.wall_s;
    phase->norm_wall_s += run.wall_s * scale;
    phase->vm_ticks += run.vm_ticks;
    phase->scale.push_back(scale);
    const double per_vm = scale / static_cast<double>(run.vms);
    for (double round : run.round_s)
      phase->vm_round_s.push_back(round * per_vm);
    phase->vm_train_s.push_back(run.train_s * per_vm);
    phase->rounds += run.rounds;
    phase->replay_failures += run.replay_failures;
    phase->replay_diagnosis_mismatches += run.replay_diagnosis_mismatches;
    phase->replay_s.insert(phase->replay_s.end(), run.replay_s.begin(),
                           run.replay_s.end());
    phase->export_bytes += run.export_bytes;
    phase->outcomes.push_back({j, run.digest, run.violation_time});
  } catch (const std::exception& e) {
    ++phase->failed;
    std::fprintf(stderr, "perfbench: scenario %zu threw: %s\n", j, e.what());
  }
}

/// Re-runs every completed scenario through run_scenario (with the
/// prepare/reactive config: no observers, so an `observed` digest must
/// equal the plain prepare digest) and counts digest mismatches.
std::size_t verify(const Workload& w, const std::vector<const Phase*>& phases) {
  std::map<std::size_t, std::uint64_t> reference;
  std::size_t mismatches = 0;
  for (const Phase* phase : phases) {
    for (const Phase::Outcome& o : phase->outcomes) {
      auto it = reference.find(o.j);
      if (it == reference.end()) {
        try {
          const ScenarioResult r = run_scenario(w.config(o.j));
          it = reference
                   .emplace(o.j, perfbench::decision_digest(r.events,
                                                            r.violation_time))
                   .first;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: run_scenario %zu threw: %s\n", o.j,
                       e.what());
          ++mismatches;
          continue;
        }
      }
      if (it->second != o.digest) {
        ++mismatches;
        std::fprintf(stderr,
                     "perfbench: scenario %zu digest %016" PRIx64
                     " != run_scenario %016" PRIx64 "\n",
                     o.j, o.digest, it->second);
      }
    }
  }
  return mismatches;
}

/// Combined digest and mean violation time over the first kMinCycles
/// cycles: identical on every run of a seed, whatever the timing.
std::pair<std::uint64_t, double> decision_summary(const Phase& phase) {
  const std::size_t n = kMinCycles * kCells;
  std::uint64_t h = perfbench::kDigestSeed;
  double violation = 0.0;
  for (const Phase::Outcome& o : phase.outcomes) {
    if (o.j >= n) break;
    perfbench::digest_mix(&h, &o.j, sizeof o.j);
    perfbench::digest_mix(&h, &o.digest, sizeof o.digest);
    violation += o.violation;
  }
  return {h, violation / static_cast<double>(n)};
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Calls / total / p50 of one layer, with a below-resolution mark.
struct LayerRow {
  std::string name;
  std::size_t calls = 0;
  double total_s = 0.0;
  double p50_s = 0.0;
};

void add_layer(const LayerRow& row, double timer_pair_s,
               std::vector<Metric>* out) {
  const bool below = row.calls > 0 && row.p50_s < 2.0 * timer_pair_s;
  std::printf("  %-30s %9zu calls %11.6f s  p50 %9.3f us%s\n",
              row.name.c_str(), row.calls, row.total_s, row.p50_s * 1e6,
              below ? "  (below timer resolution)" : "");
  out->push_back({row.name + ".calls", static_cast<double>(row.calls),
                  "count"});
  out->push_back({row.name + ".total_s", row.total_s, "s"});
  out->push_back({row.name + ".p50_us", row.p50_s * 1e6, "us"});
}

LayerRow stage_row(const obs::MetricsRegistry& registry,
                   const std::string& layer, const char* stage) {
  LayerRow row{layer};
  const auto& hs = registry.histograms();
  const auto it = hs.find(obs::stage_metric_name(stage));
  if (it == hs.end()) return row;
  row.calls = it->second.count();
  row.total_s = it->second.sum();
  row.p50_s = it->second.quantile(0.5);
  return row;
}

double counter_value(const obs::MetricsRegistry& registry,
                     const std::string& name) {
  const auto& cs = registry.counters();
  const auto it = cs.find(name);
  return it == cs.end() ? 0.0 : it->second.value();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> per_layer_metrics(const Phase& untraced,
                                      const Phase& traced,
                                      const LayerSamples& layers,
                                      const obs::MetricsRegistry& registry,
                                      double timer_pair_s) {
  std::vector<Metric> m;
  std::printf("per-layer (traced run: %zu scenarios; timer pair %.1f ns)\n",
              traced.runs, timer_pair_s * 1e9);

  double driver_sum = 0.0;
  for (std::size_t l = 0; l < perfbench::kLayerCount; ++l) {
    const auto& calls = layers.calls[l];
    LayerRow row{perfbench::kLayerNames[l], calls.size(), sum_of(calls),
                 median(calls)};
    driver_sum += row.total_s;
    add_layer(row, timer_pair_s, &m);
  }
  const double unattributed = traced.wall_s - driver_sum;
  std::printf("  driver.unattributed %.6f s; sum of layers / wall = %.6f / "
              "%.6f = %.4f\n",
              unattributed, driver_sum, traced.wall_s,
              ratio(driver_sum, traced.wall_s));
  m.push_back({"driver.wall_s", traced.wall_s, "s"});
  m.push_back({"driver.unattributed.total_s", unattributed, "s"});
  m.push_back({"driver.closure", ratio(driver_sum, traced.wall_s), "ratio"});

  const std::pair<const char*, const char*> stages[] = {
      {"models.discretize", obs::kStageDiscretize},
      {"models.markov_lookahead", obs::kStageMarkovLookahead},
      {"models.tan_classify", obs::kStageTanClassify},
      {"core.alarm_filter", obs::kStageAlarmFilter},
      {"core.cause_inference", obs::kStageCauseInference},
      {"core.prevention", obs::kStagePrevention},
  };
  double stage_sum = 0.0;
  std::size_t lookahead_calls = 0;
  for (const auto& [layer, stage] : stages) {
    const LayerRow row = stage_row(registry, layer, stage);
    stage_sum += row.total_s;
    if (stage == obs::kStageMarkovLookahead) lookahead_calls = row.calls;
    add_layer(row, timer_pair_s, &m);
  }
  const double on_sample_s = sum_of(layers.calls[perfbench::kOnSample]);
  std::printf("  core.on_sample.unattributed %.6f s; sum of stages / "
              "on_sample = %.6f / %.6f = %.4f\n",
              on_sample_s - stage_sum, stage_sum, on_sample_s,
              ratio(stage_sum, on_sample_s));
  m.push_back({"core.on_sample.unattributed.total_s", on_sample_s - stage_sum,
               "s"});
  m.push_back({"core.on_sample.closure", ratio(stage_sum, on_sample_s),
               "ratio"});

  LayerRow replay{"core.replay_episode", traced.replay_s.size(),
                  sum_of(traced.replay_s), median(traced.replay_s)};
  std::printf("  (core.replay_episode: one call per bundle, run after the "
              "wall clock stops)\n");
  add_layer(replay, timer_pair_s, &m);

  const double raw = counter_value(registry, "controller.raw_alerts_total");
  const double confirmed =
      counter_value(registry, "controller.confirmed_alerts_total");
  const double fired = counter_value(registry, "prevention.actions_total");
  const double failed =
      counter_value(registry, "prevention.validations_failed_total");
  const std::pair<const char*, double> counts[] = {
      {"core.raw_alerts", raw},
      {"core.confirmed_alerts", confirmed},
      {"core.reactive_fallbacks",
       counter_value(registry, "controller.reactive_fallbacks_total")},
      {"core.actions_fired", fired},
      {"core.validations_failed", failed},
      {"models.lookahead_calls", static_cast<double>(lookahead_calls)},
      {"core.rounds", static_cast<double>(traced.rounds)},
      {"obs.episodes", counter_value(registry, "alert.episodes_total")},
      {"obs.bundles", counter_value(registry, "recorder.bundles_total")},
      {"obs.dropped", counter_value(registry, "recorder.dropped_total")},
      {"obs.ticks_recorded",
       counter_value(registry, "recorder.ticks_recorded_total")},
      {"obs.export_bytes", static_cast<double>(traced.export_bytes)},
      {"core.replay_diagnosis_mismatches",
       static_cast<double>(traced.replay_diagnosis_mismatches)},
  };
  for (const auto& [name, value] : counts) {
    std::printf("  %-30s %.0f\n", name, value);
    m.push_back({name, value, "count"});
  }
  const double confirm_ratio = ratio(confirmed, raw);
  const double effective = fired > 0.0 ? 1.0 - failed / fired : 0.0;
  std::printf("  core.confirm_ratio %.4f (%.0f confirmed / %.0f raw)\n",
              confirm_ratio, confirmed, raw);
  std::printf("  core.prevention_effective_ratio %.4f (1 - %.0f failed / "
              "%.0f fired)\n",
              effective, failed, fired);
  m.push_back({"core.confirm_ratio", confirm_ratio, "ratio"});
  m.push_back({"core.prevention_effective_ratio", effective, "ratio"});

  const double rate_untraced = untraced.rate();
  const double rate_traced = traced.rate();
  const double overhead = 100.0 * ratio(rate_untraced - rate_traced,
                                        rate_untraced);
  std::printf("  tracing overhead: vm_ticks_per_s %.0f untraced - %.0f "
              "traced = %.2f%%\n",
              rate_untraced, rate_traced, overhead);
  m.push_back({"timer.pair_ns", timer_pair_s * 1e9, "ns"});
  m.push_back({"tracing.vm_ticks_per_s_untraced", rate_untraced,
               "VM-ticks/s"});
  m.push_back({"tracing.vm_ticks_per_s_traced", rate_traced, "VM-ticks/s"});
  m.push_back({"tracing.overhead_pct", overhead, "%"});
  return m;
}

std::vector<Metric> end_to_end_metrics(const Phase& p, double setup_s,
                                       double peak_rss_mb,
                                       double violation_s) {
  std::vector<double> rounds = p.vm_round_s;
  const double p50 = quantile(&rounds, 0.50);
  const double p99 = quantile(&rounds, 0.99);
  const auto beyond = std::count_if(rounds.begin(), rounds.end(),
                                    [&](double x) { return x > p99; });
  std::printf("rounds: %zu samples from %zu scenarios, %td above p99\n",
              rounds.size(), p.runs, beyond);
  std::printf("as measured: vm_ticks_per_s %.0f; normalisation factor: "
              "median %.4f over %zu scenarios\n",
              p.raw_rate(), median(p.scale), p.scale.size());
  return {
      {"round_us_p50", p50 * 1e6, "us/VM"},
      {"round_us_p99", p99 * 1e6, "us/VM"},
      {"vm_ticks_per_s", p.rate(), "VM-ticks/s"},
      {"train_ms_p50", median(p.vm_train_s) * 1e3, "ms/VM"},
      {"violation_s", violation_s, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Options opt = parse(argc, argv);
  // Keep the program's log formatting in the measurement, but not the
  // terminal I/O.
  std::ostream null_sink(nullptr);
  Logger::set_sink(&null_sink);

  Workload w;
  w.scheme = opt.workload == "reactive" ? Scheme::kReactive : Scheme::kPrepare;
  w.observed = opt.workload == "observed";
  w.seed = opt.seed;
  print_env(opt);

  pin_to_fastest_cpu();
  const double timer_pair_s = timer_pair_seconds();

  // Set-up: warm caches and lazy initialisation with one cycle of the
  // timed scenarios, kSetupRepeats times.
  obs::MetricsRegistry warm_registry;
  obs::MetricsRegistry* warm_reg = w.observed ? &warm_registry : nullptr;
  const double before_warmup = seconds_since(process_start);
  Phase warm;
  std::vector<double> warmup_s;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const double before = warm.norm_wall_s;
    for (std::size_t j = 0; j < kCells; ++j)
      run_one(w, j, warm_reg, nullptr, &warm);
    warmup_s.push_back(warm.norm_wall_s - before);
  }
  const double setup_s =
      before_warmup * kReferenceNominalS / reference_seconds() +
      median(warmup_s);

  // Timed phase, whole cycles only: every cell runs equally often.
  obs::MetricsRegistry untraced_registry, traced_registry;
  obs::MetricsRegistry* untraced_reg =
      w.observed ? &untraced_registry : nullptr;
  Phase untraced, traced;
  LayerSamples layers;
  const auto timed_start = Clock::now();
  std::size_t cycles = 0;
  while (cycles < kMinCycles || seconds_since(timed_start) < opt.seconds) {
    if (cycles % kPinCycles == 0) pin_to_fastest_cpu();
    const bool traced_first = opt.trace && cycles % 2 == 1;
    for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass) {
      const bool tracing = opt.trace && (pass == 0) == traced_first;
      for (std::size_t c = 0; c < kCells; ++c) {
        const std::size_t j = cycles * kCells + c;
        if (tracing)
          run_one(w, j, &traced_registry, &layers, &traced);
        else
          run_one(w, j, untraced_reg, nullptr, &untraced);
      }
    }
    ++cycles;
  }
  const double rss_mb = peak_rss_mb();
  const double timed_s = seconds_since(timed_start);

  // Correctness: decision digests against run_scenario, episode replay.
  std::vector<const Phase*> phases = {&untraced};
  if (opt.trace) phases.push_back(&traced);
  const std::size_t mismatches = verify(w, phases);
  std::size_t attempted = warm.runs, failed = mismatches + warm.failed;
  std::size_t bundles = 0, reranks = 0;
  for (const Phase* p : phases) {
    attempted += p->runs + p->replay_s.size();
    failed += p->failed + p->replay_failures;
    bundles += p->replay_s.size();
    reranks += p->replay_diagnosis_mismatches;
  }
  // The known reactive-path re-ranking (see is_reactive_rerank in
  // harness.cpp) shows on about 1 bundle in 4000. More than 1 in 1000 is
  // a regression, not that replay limitation, and every one counts.
  if (reranks * 1000 > bundles) failed += reranks;

  const auto [digest, violation_s] = decision_summary(untraced);
  std::printf("decision_digest %016" PRIx64 " over scenarios %" PRIu64
              "..%" PRIu64 "; %zu digest mismatches vs run_scenario; "
              "%zu/%zu episode replays failed, %zu differ only in the "
              "reactive-path diagnosis re-ranking\n",
              digest, opt.seed, opt.seed + kMinCycles * kCells - 1,
              mismatches, untraced.replay_failures + traced.replay_failures,
              untraced.replay_s.size() + traced.replay_s.size(),
              untraced.replay_diagnosis_mismatches +
                  traced.replay_diagnosis_mismatches);
  std::printf("timed: %zu cycles, %zu scenario runs in %.3f s\n", cycles,
              untraced.runs + traced.runs, timed_s);

  const std::vector<Metric> metrics =
      opt.trace ? per_layer_metrics(untraced, traced, layers, traced_registry,
                                    timer_pair_s)
                : end_to_end_metrics(untraced, setup_s, rss_mb, violation_s);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
