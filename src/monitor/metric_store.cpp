#include "monitor/metric_store.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace prepare {

std::pair<std::size_t, std::size_t> MetricStore::History::window(
    double t0, double t1) const {
  const auto first = static_cast<std::size_t>(
      std::lower_bound(times.begin(), times.end(), t0) - times.begin());
  std::size_t last = first;
  while (last < times.size() && times[last] <= t1) ++last;
  return {first, last};
}

std::optional<double> MetricStore::History::mean_between(Attribute a,
                                                         double t0,
                                                         double t1) const {
  const auto [first, last] = window(t0, t1);
  if (first == last) return std::nullopt;
  const auto column = static_cast<std::size_t>(a);
  double sum = 0.0;
  for (std::size_t i = first; i < last; ++i) sum += rows[i][column];
  return sum / static_cast<double>(last - first);
}

void MetricStore::record(const std::string& vm_name, double time,
                         const AttributeVector& values) {
  // Rejected here, before any history grows, whether or not a controller
  // round ever reads the sample.
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    PREPARE_CHECK(std::isfinite(values[a]))
        << "VM " << vm_name << " attribute "
        << attribute_name(static_cast<Attribute>(a)) << " sampled "
        << values[a] << " at t=" << time;
  std::size_t slot = names_.find(vm_name);
  if (slot == NameTable::kNone) {
    slot = names_.add(vm_name);
    histories_.emplace_back();
  }
  History& h = histories_[slot];
  PREPARE_CHECK(h.times.empty() || time > h.times.back())
      << "timestamps must be strictly increasing: VM " << vm_name
      << " sampled at t=" << time << " after t=" << h.times.back();
  h.times.push_back(time);
  h.rows.push_back(values);
}

const MetricStore::History* MetricStore::history(
    const std::string& vm_name) const {
  const std::size_t slot = names_.find(vm_name);
  return slot == NameTable::kNone ? nullptr : &histories_[slot];
}

const MetricStore::History& MetricStore::history_of(
    const std::string& vm_name) const {
  const History* h = history(vm_name);
  PREPARE_CHECK_MSG(h != nullptr, "unknown VM: " + vm_name);
  return *h;
}

std::size_t MetricStore::sample_count(const std::string& vm_name) const {
  const History* h = history(vm_name);
  return h == nullptr ? 0 : h->size();
}

const AttributeVector& MetricStore::sample(const std::string& vm_name,
                                           std::size_t i) const {
  const History& h = history_of(vm_name);
  PREPARE_CHECK(i < h.size()) << "VM " << vm_name << " has " << h.size()
                              << " samples, not " << i + 1;
  return h.rows[i];
}

double MetricStore::sample_time(const std::string& vm_name,
                                std::size_t i) const {
  const History& h = history_of(vm_name);
  PREPARE_CHECK(i < h.size()) << "VM " << vm_name << " has " << h.size()
                              << " samples, not " << i + 1;
  return h.times[i];
}

const AttributeVector* MetricStore::latest_sample(
    const std::string& vm_name) const {
  const History* h = history(vm_name);
  return h == nullptr ? nullptr : &h->rows.back();
}

void MetricStore::clear() {
  names_.clear();
  histories_.clear();
}

}  // namespace prepare
