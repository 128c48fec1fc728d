// Per-VM metric history: one row of the 13 attributes per sample.
//
// The store is what the anomaly predictor trains on and what the
// prevention validator's look-back / look-ahead windows read from. Each
// VM has a slot, in first-recorded order, holding its sample times and
// one AttributeVector row per sample; a NameTable finds the slot.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "monitor/attributes.h"
#include "monitor/name_table.h"

namespace prepare {

class MetricStore {
 public:
  /// One VM's samples, oldest first.
  struct History {
    std::vector<double> times;          ///< strictly increasing
    std::vector<AttributeVector> rows;  ///< rows[i] sampled at times[i]

    std::size_t size() const { return times.size(); }

    /// [first, last) indices of the samples with time in [t0, t1].
    std::pair<std::size_t, std::size_t> window(double t0, double t1) const;

    /// Mean of attribute `a` over the samples with time in [t0, t1],
    /// summed oldest first; nullopt if no sample falls inside.
    std::optional<double> mean_between(Attribute a, double t0,
                                       double t1) const;
  };

  /// Appends one monitoring sample for a VM. Every value must be finite
  /// and the time must be later than the VM's previous sample; otherwise
  /// it throws CheckFailure and stores nothing.
  void record(const std::string& vm_name, double time,
              const AttributeVector& values);

  /// Number of samples stored for a VM (0 if unknown).
  std::size_t sample_count(const std::string& vm_name) const;

  /// All VM names seen so far, in first-seen order.
  const std::vector<std::string>& vm_names() const { return names_.names(); }

  /// Sample i of a VM and its timestamp; throw if the VM is unknown or i
  /// is out of range.
  const AttributeVector& sample(const std::string& vm_name,
                                std::size_t i) const;
  double sample_time(const std::string& vm_name, std::size_t i) const;

  /// The latest sample of a VM, in place; null if the VM is unknown.
  const AttributeVector* latest_sample(const std::string& vm_name) const;

  /// Every sample of one VM, in one lookup; null if the VM is unknown.
  const History* history(const std::string& vm_name) const;

  void clear();

 private:
  const History& history_of(const std::string& vm_name) const;

  NameTable names_;
  std::vector<History> histories_;  ///< by slot
};

}  // namespace prepare
