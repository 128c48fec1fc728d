#include "report/report.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "common/csv.h"

namespace prepare {

namespace {

constexpr double kChartWidth = 960.0;
constexpr double kChartHeight = 220.0;
constexpr double kPad = 36.0;

struct Range {
  double lo = 0.0;
  double hi = 1.0;
  double clamp(double v) const { return std::min(hi, std::max(lo, v)); }
};

Range range_of(const std::vector<double>& xs) {
  Range r;
  if (xs.empty()) return r;
  r.lo = *std::min_element(xs.begin(), xs.end());
  r.hi = *std::max_element(xs.begin(), xs.end());
  if (r.hi - r.lo < 1e-12) {
    r.lo -= 1.0;
    r.hi += 1.0;
  }
  return r;
}

double x_of(double t, const Range& tr) {
  return kPad + (t - tr.lo) / (tr.hi - tr.lo) * (kChartWidth - 2 * kPad);
}

double y_of(double v, const Range& vr) {
  return kChartHeight - kPad -
         (v - vr.lo) / (vr.hi - vr.lo) * (kChartHeight - 2 * kPad);
}

/// Polyline through (times[i], values[i]) within the given ranges.
std::string polyline(const std::vector<double>& times,
                     const std::vector<double>& values, const Range& tr,
                     const Range& vr, const char* color) {
  std::ostringstream os;
  os << "<polyline fill='none' stroke='" << color
     << "' stroke-width='1.5' points='";
  for (std::size_t i = 0; i < times.size(); ++i)
    os << x_of(times[i], tr) << "," << y_of(vr.clamp(values[i]), vr) << " ";
  os << "'/>";
  return os.str();
}

std::string axes(const Range& tr, const Range& vr) {
  std::ostringstream os;
  os << "<line x1='" << kPad << "' y1='" << kChartHeight - kPad << "' x2='"
     << kChartWidth - kPad << "' y2='" << kChartHeight - kPad
     << "' stroke='#999'/>"
     << "<line x1='" << kPad << "' y1='" << kPad << "' x2='" << kPad
     << "' y2='" << kChartHeight - kPad << "' stroke='#999'/>";
  os << "<text x='" << kPad << "' y='" << kChartHeight - kPad + 16
     << "' font-size='11'>" << format_number(tr.lo) << " s</text>";
  os << "<text x='" << kChartWidth - kPad - 40 << "' y='"
     << kChartHeight - kPad + 16 << "' font-size='11'>"
     << format_number(tr.hi) << " s</text>";
  os << "<text x='4' y='" << kPad << "' font-size='11'>"
     << format_number(vr.hi) << "</text>";
  os << "<text x='4' y='" << kChartHeight - kPad << "' font-size='11'>"
     << format_number(vr.lo) << "</text>";
  return os.str();
}

std::string chart_open(const std::string& caption) {
  std::ostringstream os;
  os << "<figure><figcaption>" << caption << "</figcaption>"
     << "<svg viewBox='0 0 " << kChartWidth << " " << kChartHeight
     << "' width='" << kChartWidth << "' height='" << kChartHeight << "'>";
  return os.str();
}

const char* event_color(EventKind kind) {
  switch (kind) {
    case EventKind::kPrevention: return "#c72";
    case EventKind::kMigrationStart:
    case EventKind::kMigrationDone: return "#75c";
    case EventKind::kCpuScale:
    case EventKind::kMemScale: return "#2a7";
    default: return "#bbb";
  }
}

}  // namespace

std::string render_html_report(const ReportInput& input) {
  PREPARE_CHECK(input.store != nullptr);
  PREPARE_CHECK(input.slo != nullptr);

  const TimeSeries& metric = input.slo->metric_trace();
  PREPARE_CHECK_MSG(!metric.empty(), "report needs a recorded SLO trace");
  Range tr{metric.at(0).time, metric.back().time};
  std::vector<double> times, values;
  for (const auto& p : metric.points()) {
    times.push_back(p.time);
    values.push_back(p.value);
  }
  Range vr = range_of(values);

  std::ostringstream html;
  html << "<!doctype html><html><head><meta charset='utf-8'><title>"
       << input.title << "</title><style>"
       << "body{font-family:sans-serif;max-width:1000px;margin:2em auto}"
       << "figure{margin:1.5em 0}figcaption{font-weight:bold}"
       << "table{border-collapse:collapse}td,th{border:1px solid #ccc;"
       << "padding:4px 10px;text-align:left}</style></head><body>";
  html << "<h1>" << input.title << "</h1>";

  // --- summary table ---
  html << "<table><tr><th>metric</th><th>value</th></tr>";
  html << "<tr><td>recorded span</td><td>" << format_number(tr.lo) << " – "
       << format_number(tr.hi) << " s</td></tr>";
  html << "<tr><td>total SLO violation</td><td>"
       << format_number(input.slo->total_violation_time())
       << " s</td></tr>";
  html << "<tr><td>violation episodes</td><td>"
       << input.slo->intervals().size() << "</td></tr>";
  html << "<tr><td>monitored VMs</td><td>" << input.store->vm_names().size()
       << "</td></tr>";
  if (input.events != nullptr) {
    for (EventKind kind :
         {EventKind::kAlertConfirmed, EventKind::kPrevention,
          EventKind::kCpuScale, EventKind::kMemScale,
          EventKind::kMigrationStart}) {
      const auto count = input.events->count_of(kind);
      if (count > 0)
        html << "<tr><td>" << event_kind_name(kind) << " events</td><td>"
             << count << "</td></tr>";
    }
  }
  html << "</table>";

  // --- SLO metric chart with violation shading and event markers ---
  html << chart_open(input.slo_metric_name);
  for (const auto& iv : input.slo->intervals()) {
    html << "<rect x='" << x_of(iv.start, tr) << "' y='" << kPad
         << "' width='" << x_of(iv.end, tr) - x_of(iv.start, tr)
         << "' height='" << kChartHeight - 2 * kPad
         << "' fill='#fdd' class='violation'/>";
  }
  html << axes(tr, vr) << polyline(times, values, tr, vr, "#36c");
  if (input.events != nullptr) {
    for (const auto& e : input.events->events()) {
      if (e.kind == EventKind::kAlert || e.kind == EventKind::kInfo)
        continue;
      if (e.time < tr.lo || e.time > tr.hi) continue;
      html << "<line x1='" << x_of(e.time, tr) << "' y1='" << kPad
           << "' x2='" << x_of(e.time, tr) << "' y2='"
           << kChartHeight - kPad << "' stroke='" << event_color(e.kind)
           << "' stroke-dasharray='3 3'><title>"
           << format_number(e.time) << "s " << event_kind_name(e.kind)
           << " " << e.subject << ": " << e.detail << "</title></line>";
    }
  }
  html << "</svg></figure>";

  // --- per-VM CPU and free-memory panels ---
  for (const auto& vm : input.store->vm_names()) {
    html << chart_open(vm + " — cpu_util (%) and free_mem (MB, scaled)");
    const MetricStore::History& history = *input.store->history(vm);
    std::vector<double> cpu_values, mem_values;
    for (const AttributeVector& row : history.rows) {
      cpu_values.push_back(get(row, Attribute::kCpuUtil));
      mem_values.push_back(get(row, Attribute::kFreeMem));
    }
    const Range cpur = range_of(cpu_values);
    const Range memr = range_of(mem_values);
    html << axes(tr, cpur)
         << polyline(history.times, cpu_values, tr, cpur, "#2a7")
         << polyline(history.times, mem_values, tr, memr, "#c72")
         << "</svg></figure>";
  }

  html << "</body></html>";
  return html.str();
}

void write_html_report(const ReportInput& input, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << render_html_report(input);
  // A full disk or a closed pipe shows only once the buffer is flushed.
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace prepare
