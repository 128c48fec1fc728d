#include "monitor/labeler.h"

#include <limits>

namespace prepare {

LabeledSamples Labeler::label(const MetricStore& store, const SloLog& slo,
                              const std::string& vm_name, double t0,
                              double t1) {
  LabeledSamples out;
  const MetricStore::History* history = store.history(vm_name);
  if (history == nullptr) return out;
  // Timestamps strictly increase, so the window is one index range.
  const auto [first, last] = history->window(t0, t1);
  const std::size_t n = last - first;
  out.times.assign(history->times.data() + first,
                   history->times.data() + last);
  out.abnormal.resize(n);
  for (std::size_t r = 0; r < n; ++r)
    out.abnormal[r] = slo.violated_at(out.times[r]);
  for (std::size_t a = 0; a < kAttributeCount; ++a) {
    out.columns[a].resize(n);
    for (std::size_t r = 0; r < n; ++r)
      out.columns[a][r] = history->rows[first + r][a];
  }
  return out;
}

LabeledSamples Labeler::label_all(const MetricStore& store, const SloLog& slo,
                                  const std::string& vm_name) {
  return label(store, slo, vm_name, -std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::infinity());
}

}  // namespace prepare
