#include "obs/stage_profiler.h"

#include <cstdio>

namespace prepare {
namespace obs {

namespace {

constexpr const char* kStagePrefix = "stage.";
constexpr const char* kStageSuffix = ".seconds";

/// stage.<name>.seconds -> <name>; empty when `metric` is not a stage
/// histogram.
std::string stage_of_metric(const std::string& metric) {
  const std::string prefix(kStagePrefix);
  const std::string suffix(kStageSuffix);
  if (metric.size() <= prefix.size() + suffix.size()) return "";
  if (metric.compare(0, prefix.size(), prefix) != 0) return "";
  if (metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) !=
      0)
    return "";
  return metric.substr(prefix.size(),
                       metric.size() - prefix.size() - suffix.size());
}

}  // namespace

std::string stage_metric_name(const std::string& stage) {
  return kStagePrefix + stage + kStageSuffix;
}

void write_stage_report(const MetricsRegistry& registry, std::ostream& os) {
  char line[160];
  std::snprintf(line, sizeof(line), "%-18s %8s %10s %10s %10s %10s %10s\n",
                "stage", "calls", "p50 (us)", "p90 (us)", "p99 (us)",
                "mean (us)", "total (ms)");
  os << line;
  bool any = false;
  for (const auto& [name, histogram] : registry.histograms()) {
    const std::string stage = stage_of_metric(name);
    if (stage.empty()) continue;
    any = true;
    std::snprintf(line, sizeof(line),
                  "%-18s %8zu %10.1f %10.1f %10.1f %10.1f %10.2f\n",
                  stage.c_str(), histogram.count(),
                  histogram.quantile(0.50) * 1e6,
                  histogram.quantile(0.90) * 1e6,
                  histogram.quantile(0.99) * 1e6, histogram.mean() * 1e6,
                  histogram.sum() * 1e3);
    os << line;
  }
  if (!any) os << "(no stage.* histograms recorded)\n";
}

}  // namespace obs
}  // namespace prepare
