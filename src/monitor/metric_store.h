// Per-VM, per-attribute metric history.
//
// The store is what the anomaly predictor trains on and what the
// prevention validator's look-back / look-ahead windows read from.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "monitor/attributes.h"
#include "timeseries/timeseries.h"

namespace prepare {

class MetricStore {
 public:
  /// Appends one monitoring sample for a VM. Every value must be
  /// finite; a NaN or infinite one throws CheckFailure and stores
  /// nothing.
  void record(const std::string& vm_name, double time,
              const AttributeVector& values);

  /// Number of samples stored for a VM (0 if unknown).
  std::size_t sample_count(const std::string& vm_name) const;

  /// All VM names seen so far, in first-seen order.
  const std::vector<std::string>& vm_names() const { return vm_names_; }

  /// Series for one attribute of one VM; throws if the VM is unknown.
  const TimeSeries& series(const std::string& vm_name, Attribute a) const;

  /// Sample i of a VM as a full attribute vector (plus its timestamp).
  AttributeVector sample(const std::string& vm_name, std::size_t i) const;
  double sample_time(const std::string& vm_name, std::size_t i) const;

  /// The latest sample of a VM; nullopt if the VM is unknown.
  std::optional<AttributeVector> latest_sample(
      const std::string& vm_name) const;

  /// Every attribute's series of one VM, all on the same timestamps, in
  /// one lookup; null if the VM is unknown.
  using History = std::array<TimeSeries, kAttributeCount>;
  const History* history(const std::string& vm_name) const;

  void clear();

 private:
  const History& history_of(const std::string& vm_name) const;

  std::map<std::string, History> histories_;
  std::vector<std::string> vm_names_;
};

}  // namespace prepare
