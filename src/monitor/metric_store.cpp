#include "monitor/metric_store.h"

#include <cmath>

#include "common/check.h"

namespace prepare {

void MetricStore::record(const std::string& vm_name, double time,
                         const AttributeVector& values) {
  // Rejected here, before any series grows, whether or not a controller
  // round ever reads the sample.
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    PREPARE_CHECK(std::isfinite(values[a]))
        << "VM " << vm_name << " attribute "
        << attribute_name(static_cast<Attribute>(a)) << " sampled "
        << values[a] << " at t=" << time;
  auto it = histories_.find(vm_name);
  if (it == histories_.end()) {
    it = histories_.emplace(vm_name, History{}).first;
    vm_names_.push_back(vm_name);
  }
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    it->second[a].append(time, values[a]);
}

const MetricStore::History* MetricStore::history(
    const std::string& vm_name) const {
  auto it = histories_.find(vm_name);
  return it == histories_.end() ? nullptr : &it->second;
}

const MetricStore::History& MetricStore::history_of(
    const std::string& vm_name) const {
  const History* h = history(vm_name);
  PREPARE_CHECK_MSG(h != nullptr, "unknown VM: " + vm_name);
  return *h;
}

std::size_t MetricStore::sample_count(const std::string& vm_name) const {
  const History* h = history(vm_name);
  return h == nullptr ? 0 : (*h)[0].size();
}

const TimeSeries& MetricStore::series(const std::string& vm_name,
                                      Attribute a) const {
  return history_of(vm_name)[static_cast<std::size_t>(a)];
}

AttributeVector MetricStore::sample(const std::string& vm_name,
                                    std::size_t i) const {
  const History& h = history_of(vm_name);
  AttributeVector v{};
  for (std::size_t a = 0; a < kAttributeCount; ++a) v[a] = h[a].at(i).value;
  return v;
}

double MetricStore::sample_time(const std::string& vm_name,
                                std::size_t i) const {
  return history_of(vm_name)[0].at(i).time;
}

std::optional<AttributeVector> MetricStore::latest_sample(
    const std::string& vm_name) const {
  const History* h = history(vm_name);
  if (h == nullptr) return std::nullopt;
  AttributeVector v{};
  for (std::size_t a = 0; a < kAttributeCount; ++a) v[a] = (*h)[a].back().value;
  return v;
}

void MetricStore::clear() {
  histories_.clear();
  vm_names_.clear();
}

}  // namespace prepare
