#include "obs/trace_export.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/model_introspect.h"
#include "obs/span_tracer.h"
#include "sim/event_log.h"

namespace prepare {
namespace {

using obs::JsonObject;
using obs::MetricsRegistry;
using obs::RunInfo;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

// --- JSON primitives --------------------------------------------------------

/// The text JsonObject writes for `value`: the line `{"k":<text>}\n` of
/// a one-field object, its frame checked and stripped.
template <typename T>
std::string value_text(T value) {
  std::ostringstream os;
  JsonObject(os).field("k", value);
  const std::string line = os.str();
  if (line.size() < 7 || line.compare(0, 5, "{\"k\":") != 0 ||
      line.compare(line.size() - 2, 2, "}\n") != 0) {
    ADD_FAILURE() << "unexpected frame: " << line;
    return "";
  }
  return line.substr(5, line.size() - 7);
}

/// A string's escaped text, between the quotes JsonObject writes.
std::string escaped(std::string_view s) {
  const std::string quoted = value_text(s);
  if (quoted.size() < 2 || quoted.front() != '"' || quoted.back() != '"') {
    ADD_FAILURE() << "unquoted string: " << quoted;
    return "";
  }
  return quoted.substr(1, quoted.size() - 2);
}

TEST(Json, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(escaped("plain"), "plain");
  EXPECT_EQ(escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(escaped("a\nb"), "a\\nb");
  EXPECT_EQ(escaped(std::string("a\x01""b")), "a\\u0001b");
}

TEST(Json, NumbersRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(std::stod(value_text(12.5)), 12.5);
  EXPECT_EQ(std::stod(value_text(1e-9)), 1e-9);
  EXPECT_EQ(value_text(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(value_text(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(value_text(std::numeric_limits<double>::quiet_NaN()), "null");
}

/// The formatting numbers must reproduce: "%.17g" in the C locale.
std::string printf_precision17(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Compares JsonObject's text of each checked value with "%.17g" (null
/// for a non-finite one). The values are written as the fields of
/// shared lines, a batch at a time, so a sweep of millions stays cheap.
class NumberChecker {
 public:
  void check(double v) {
    batch_.push_back(v);
    if (batch_.size() == kBatch) drain();
  }
  /// Mismatches of every value checked; the first ten are reported as
  /// failures.
  int mismatches() {
    drain();
    return mismatches_;
  }

 private:
  static constexpr std::size_t kBatch = 256;

  void drain() {
    if (batch_.empty()) return;
    os_.str("");
    {
      JsonObject line(os_);
      for (const double v : batch_) line.field("k", v);
    }
    const std::string text = os_.str();
    std::size_t pos = 0;
    for (const double v : batch_) {
      // Each field is ["{" or ","] "\"k\":" <number>.
      pos += 5;
      const std::size_t end = text.find_first_of(",}", pos);
      const std::string_view got(text.data() + pos, end - pos);
      pos = end;
      char want[40] = "null";
      if (std::isfinite(v)) std::snprintf(want, sizeof want, "%.17g", v);
      if (got != want && ++mismatches_ <= 10)
        ADD_FAILURE() << "bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(v) << ": " << got
                      << " != " << want;
    }
    batch_.clear();
  }

  std::vector<double> batch_;
  std::ostringstream os_;
  int mismatches_ = 0;
};

TEST(Json, NumberMatchesPrintfPrecision17) {
  using Limits = std::numeric_limits<double>;
  NumberChecker checker;
  const auto check = [&checker](double v) { checker.check(v); };
  for (const double v : {0.0, Limits::denorm_min(), Limits::min(),
                         Limits::max()}) {
    check(v);
    check(-v);
  }
  // Subnormals go to std::to_chars: every magnitude from 2^-1074 up.
  for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << 52); bits *= 3) {
    check(std::bit_cast<double>(bits));
    check(-std::bit_cast<double>(bits));
  }
  // Every decade a double reaches, and past both ends (underflow to
  // zero, overflow to inf), at mantissas that stress the rounding.
  for (int e = -330; e <= 310; ++e) {
    for (const char* m : {"1", "5", "9.999999999999999",
                          "1.0000000000000002"}) {
      const std::string text = std::string(m) + "e" + std::to_string(e);
      const double v = std::strtod(text.c_str(), nullptr);
      check(v);
      check(-v);
    }
  }
  for (int i = -100000; i <= 100000; ++i) check(static_cast<double>(i));
  // Near 1e16 doubles are 17-digit even integers, printed exactly; at
  // 1e17 "%.17g" switches from fixed to scientific notation.
  for (const double pivot : {1e16, 1e17}) {
    double up = pivot;
    double down = pivot;
    for (int step = 0; step < 64; ++step) {
      check(up);
      check(down);
      up = std::nextafter(up, Limits::infinity());
      down = std::nextafter(down, 0.0);
    }
  }
  Rng rng(20261017);
  int random_checked = 0;
  while (random_checked < (1 << 20)) {
    const double v = std::bit_cast<double>(rng.engine()());
    if (!std::isfinite(v)) continue;
    check(v);
    ++random_checked;
  }

  // The writer's integer path takes 2^-53 <= |x| < 2^57; the random bit
  // patterns above land there only ~5% of the time. 10M doubles spread
  // log-uniformly over [1e-17, 1e18): a uniform binade and sign, random
  // mantissa bits.
  int spread_checked = 0;
  while (spread_checked < 10'000'000) {
    const std::uint64_t draw = rng.engine()();
    const auto biased =
        static_cast<std::uint64_t>(rng.uniform_int(-57, 59) + 1023);
    const double v = std::bit_cast<double>(
        (draw & ((std::uint64_t{1} << 52) - 1)) | (biased << 52) |
        (draw & (std::uint64_t{1} << 63)));
    if (std::abs(v) < 1e-17 || std::abs(v) >= 1e18) continue;
    check(v);
    ++spread_checked;
  }
  // Exact ties: x = j * 2^(e - 17) with j odd and 10^e <= x < 10^(e+1)
  // makes x * 10^(16 - e) = j * 5^(16 - e) / 2 end in exactly one half,
  // so the 17th digit rounds to even. Such j < 2^53 exist for e in
  // -8..15 (at -8 only j = 1 and 3). Their neighbours one ulp away lie
  // on either side of it.
  for (int e = -8; e <= 15; ++e) {
    const double lo = std::ceil(std::ldexp(std::pow(10.0, e), 17 - e));
    const double hi = std::min(std::ldexp(std::pow(10.0, e + 1), 17 - e),
                               std::ldexp(1.0, 53));
    for (int i = 0; i < 2000; ++i) {
      const double j =
          std::floor(rng.uniform(lo, hi) / 2.0) * 2.0 + 1.0;  // odd
      if (j < lo || j >= hi) continue;
      const double tie = std::ldexp(j, e - 17);
      for (const double v : {tie, std::nextafter(tie, 0.0),
                             std::nextafter(tie, Limits::infinity())}) {
        check(v);
        check(-v);
      }
    }
  }
  // Every power of ten a double reaches, and its neighbours one ulp
  // away, inside the integer path's range and beyond it.
  for (int e = -323; e <= 308; ++e) {
    const std::string text = "1e" + std::to_string(e);
    const double v = std::strtod(text.c_str(), nullptr);
    for (const double w : {v, std::nextafter(v, 0.0),
                           std::nextafter(v, Limits::infinity())}) {
      check(w);
      check(-w);
    }
  }
  // Integers up to 2^57, where doubles stop being odd past 2^53 and the
  // fixed notation reaches 17 digits.
  for (int i = 0; i < 200'000; ++i) {
    const int bits = static_cast<int>(rng.uniform_int(1, 57));
    const std::uint64_t n = rng.engine()() >> (64 - bits);
    check(static_cast<double>(n));
    check(-static_cast<double>(n));
  }
  EXPECT_EQ(checker.mismatches(), 0);
}

/// The JSON escaper as it was first written (snprintf for control
/// bytes): the reference the clean-run escaper must match byte for byte.
std::string reference_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(Json, EscapeMatchesReference) {
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(escaped(one), reference_escape(one)) << "byte " << b;
  }
  std::string mixed = "vm-pe3 \"quoted\" back\\slash\ttab\nline";
  for (int b = 0; b < 256; ++b) {
    mixed += static_cast<char>(b);
    mixed += "run";
  }
  mixed += "\xc3\xa9 trailing clean run";
  EXPECT_EQ(escaped(mixed), reference_escape(mixed));
}

// The writer's line buffer holds 4 KB: a longer line reaches the stream
// in pieces, flushed mid-field and mid-string, with the same bytes.
TEST(Json, LineLongerThanTheBufferKeepsItsBytes) {
  std::string text(5000, 'x');  // one clean run longer than the buffer
  for (int i = 0; i < 3000; ++i) text += i % 7 == 0 ? "\"q\"\n" : "abc";
  std::string want = "{\"text\":\"" + reference_escape(text) + "\"";
  std::ostringstream os;
  {
    JsonObject record(os);
    record.field("text", text);
    for (int i = 0; i < 500; ++i) {
      const std::string key = "k" + std::to_string(i);
      const double value = 1.0 / (i + 3);
      record.field(key, value).field(key + "n", i);
      want += ",\"" + key + "\":" + printf_precision17(value) + ",\"" + key +
              "n\":" + std::to_string(i);
    }
  }
  want += "}\n";
  EXPECT_EQ(os.str(), want);
}

TEST(Json, ObjectIsOneLineAndCloseIsIdempotent) {
  std::ostringstream os;
  {
    JsonObject record(os);
    record.field("record", "event").field("t", 12.5);
    record.close();
    record.close();
  }
  EXPECT_EQ(os.str(), "{\"record\":\"event\",\"t\":12.5}\n");
}

// --- run header -------------------------------------------------------------

TEST(TraceExport, RunHeaderCarriesSchemaIdAndLabels) {
  std::ostringstream os;
  RunInfo info;
  info.run_id = "system_s-memory_leak-prepare-seed11";
  info.sim_time_end = 1350.0;
  info.labels = {{"app", "system_s"}, {"seed", "11"}};
  obs::write_run_header(os, info);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"record\":\"run\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"schema\":" +
                          std::to_string(obs::kObsSchemaVersion)),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"run_id\":\"system_s-memory_leak-prepare-seed11\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"sim_time_end\":1350"), std::string::npos);
  EXPECT_NE(lines[0].find("\"app\":\"system_s\""), std::string::npos);
}

TEST(TraceExport, RunHeaderRequiresRunId) {
  std::ostringstream os;
  EXPECT_THROW(obs::write_run_header(os, RunInfo{}), CheckFailure);
}

// --- metric snapshots -------------------------------------------------------

TEST(TraceExport, MetricSnapshotEmitsOneRecordPerInstrument) {
  MetricsRegistry registry;
  registry.counter("a.total")->inc(3.0);
  registry.gauge("b.level")->set(0.5);
  registry.histogram("c.seconds")->record(1e-3);
  std::ostringstream os;
  obs::write_metrics_jsonl(os, registry, "r1", 100.0);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"name\":\"a.total\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"value\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"record\":\"histogram\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"count\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"p99\":"), std::string::npos);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"run_id\":\"r1\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"t\":100"), std::string::npos) << line;
  }
}

// --- event log JSONL + capacity guard --------------------------------------

TEST(EventLogJsonl, RoundTripsEventsWithEscaping) {
  EventLog log;
  log.record(10.0, EventKind::kAlert, "vm-pe3", "predicted anomaly");
  log.record(15.0, EventKind::kMemScale, "vm-pe3", "512 -> 1024 \"MB\"");
  std::ostringstream os;
  log.to_jsonl(os, "r1");
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"record\":\"event\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"kind\":\"alert\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"subject\":\"vm-pe3\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"mem_scale\""), std::string::npos);
  EXPECT_NE(lines[1].find("512 -> 1024 \\\"MB\\\""), std::string::npos);
}

TEST(EventLog, CapacityGuardDropsAndCounts) {
  obs::MetricsRegistry registry;
  EventLog log;
  log.set_metrics(&registry);
  log.set_capacity(2);
  log.record(1.0, EventKind::kInfo, "a", "kept");
  log.record(2.0, EventKind::kInfo, "b", "kept");
  log.record(3.0, EventKind::kInfo, "c", "dropped");
  log.record(4.0, EventKind::kInfo, "d", "dropped");
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(registry.counter("events.recorded_total")->value(), 2.0);
  EXPECT_EQ(registry.counter("events.dropped_total")->value(), 2.0);
  log.clear();
  EXPECT_EQ(log.dropped(), 0u);
}

// --- pinned export bytes ----------------------------------------------------

/// FNV-1a 64 over `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// `text` without its `"record":"histogram"` lines: histograms carry
/// wall-clock stage timings, everything else is a function of the seed.
std::string without_histograms(const std::string& text) {
  std::string out;
  for (const std::string& line : lines_of(text)) {
    if (line.find("\"record\":\"histogram\"") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// Every byte the exporters write for two bundle-heavy runs with all four
// observers attached, per record family. Both runs reach max_bundles, so
// the evidence family covers full captures, truncated captures and the
// drop path. A change to the JSONL writers must keep these digests; a
// deliberate format change updates them and says why.
TEST(ObsExport, BytesArePinned) {
  struct Family {
    const char* name;
    std::uint64_t digest;
    std::size_t bytes;
  };
  struct Case {
    AppKind app;
    FaultKind fault;
    std::uint64_t seed;
    Family families[5];
  };
  const Case cases[] = {
      {AppKind::kSystemS,
       FaultKind::kCpuHog,
       1,
       {{"events", 0x1756a497cd4807b9ULL, 519034},
        {"spans", 0x0502c1e3e41a93a5ULL, 404522},
        {"introspection", 0x1436da017d15be2eULL, 13878},
        {"evidence", 0x08738f5317f0c0b4ULL, 1214974},
        {"metrics", 0x76a62a7c65ad7f97ULL, 23216}}},
      {AppKind::kRubis,
       FaultKind::kMemoryLeak,
       5,
       {{"events", 0xd8ee3a6796e758feULL, 147700},
        {"spans", 0x8b3de289e8c6f429ULL, 77183},
        {"introspection", 0x42b9e2753d02c271ULL, 13835},
        {"evidence", 0x6bce4e325f60cec7ULL, 1309600},
        {"metrics", 0xebfcd2ea823da58aULL, 21925}}},
  };
  for (const Case& c : cases) {
    obs::MetricsRegistry registry;
    obs::SpanTracer tracer(&registry);
    obs::ModelIntrospect introspect(&registry);
    obs::FlightRecorder recorder(&registry);
    ScenarioConfig config;
    config.app = c.app;
    config.fault = c.fault;
    config.seed = c.seed;
    config.metrics = &registry;
    config.tracer = &tracer;
    config.introspect = &introspect;
    config.recorder = &recorder;
    const ScenarioResult result = run_scenario(config);
    EXPECT_EQ(recorder.bundles_emitted(), recorder.config().max_bundles);
    EXPECT_GT(recorder.dropped_total(), 0u);

    const std::string run_id = "pin";
    std::ostringstream events, spans, introspection, evidence, metrics;
    result.events.to_jsonl(events, run_id);
    tracer.write_spans_jsonl(spans, run_id);
    introspect.write_introspection_jsonl(introspection, run_id);
    recorder.write_evidence_jsonl(evidence, run_id);
    obs::write_metrics_jsonl(metrics, registry, run_id, config.run_end);
    const std::string written[5] = {events.str(), spans.str(),
                                    introspection.str(), evidence.str(),
                                    without_histograms(metrics.str())};
    for (std::size_t f = 0; f < 5; ++f) {
      const Family& pinned = c.families[f];
      const std::uint64_t digest = fnv1a(written[f]);
      char got[64];
      std::snprintf(got, sizeof got, "0x%016llxULL, %zu",
                    static_cast<unsigned long long>(digest),
                    written[f].size());
      SCOPED_TRACE(std::string(app_kind_name(c.app)) + " / " +
                   fault_kind_name(c.fault) + " seed " +
                   std::to_string(c.seed) + " / " + pinned.name + " -> " +
                   got);
      EXPECT_EQ(digest, pinned.digest);
      EXPECT_EQ(written[f].size(), pinned.bytes);
    }
  }
}

}  // namespace
}  // namespace prepare
