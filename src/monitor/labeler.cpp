#include "monitor/labeler.h"

#include <algorithm>
#include <limits>

namespace prepare {

LabeledSamples Labeler::label(const MetricStore& store, const SloLog& slo,
                              const std::string& vm_name, double t0,
                              double t1) {
  LabeledSamples out;
  const MetricStore::History* history = store.history(vm_name);
  if (history == nullptr) return out;
  // Timestamps strictly increase, so the window is one index range.
  const std::vector<TimePoint>& clock = (*history)[0].points();
  const auto before = [](const TimePoint& p, double t) { return p.time < t; };
  const auto first = static_cast<std::size_t>(
      std::lower_bound(clock.begin(), clock.end(), t0, before) -
      clock.begin());
  std::size_t last = first;
  while (last < clock.size() && !(clock[last].time > t1)) ++last;
  const std::size_t n = last - first;
  out.times.resize(n);
  out.abnormal.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    out.times[r] = clock[first + r].time;
    out.abnormal[r] = slo.violated_at(out.times[r]);
  }
  for (std::size_t a = 0; a < kAttributeCount; ++a) {
    const std::vector<TimePoint>& points = (*history)[a].points();
    out.columns[a].resize(n);
    for (std::size_t r = 0; r < n; ++r)
      out.columns[a][r] = points[first + r].value;
  }
  return out;
}

LabeledSamples Labeler::label_all(const MetricStore& store, const SloLog& slo,
                                  const std::string& vm_name) {
  return label(store, slo, vm_name, -std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::infinity());
}

}  // namespace prepare
