#include "core/cause_inference.h"

#include <algorithm>

#include "common/check.h"

namespace prepare {

CauseInference::CauseInference(std::size_t vm_count, Config config)
    : config_(config),
      detectors_(vm_count, CusumDetector(config_.cusum)),
      last_change_time_(vm_count, -1.0) {
  PREPARE_CHECK(vm_count > 0);
  PREPARE_CHECK(config_.workload_change_fraction > 0.0 &&
                config_.workload_change_fraction <= 1.0);
}

void CauseInference::observe(std::size_t vm, double now,
                             const AttributeVector& values) {
  PREPARE_CHECK(vm < detectors_.size());
  if (detectors_[vm].update(get(values, Attribute::kNetIn))) {
    last_change_time_[vm] = now;
    detectors_[vm].rearm();
  }
}

bool CauseInference::workload_change_suspected(double now) const {
  std::size_t recent = 0;
  for (const double t : last_change_time_)
    if (t >= 0.0 && now - t <= config_.recent_window_s) ++recent;
  return static_cast<double>(recent) >=
         config_.workload_change_fraction *
             static_cast<double>(last_change_time_.size());
}

Diagnosis CauseInference::diagnose(
    const std::vector<const Classification*>& alerting) const {
  PREPARE_DCHECK(alerting.size() == detectors_.size());
  Diagnosis out;
  for (std::size_t vm = 0; vm < alerting.size(); ++vm) {
    if (alerting[vm] == nullptr) continue;
    const Classification& cls = *alerting[vm];
    Diagnosis::FaultyVm faulty;
    faulty.vm = vm;
    faulty.score = cls.score;
    const auto order = Classifier::ranked_attributes(cls);
    const std::size_t take =
        std::min(config_.top_attributes, order.size());
    for (std::size_t i = 0; i < take; ++i) {
      // Only keep attributes that actually push toward "abnormal".
      if (cls.impacts[order[i]] <= 0.0) break;
      faulty.ranked.push_back(static_cast<Attribute>(order[i]));
      faulty.impacts.push_back(cls.impacts[order[i]]);
    }
    out.faulty.push_back(std::move(faulty));
  }
  std::stable_sort(out.faulty.begin(), out.faulty.end(),
                   [](const Diagnosis::FaultyVm& a,
                      const Diagnosis::FaultyVm& b) {
                     return a.score > b.score;
                   });
  return out;
}

}  // namespace prepare
