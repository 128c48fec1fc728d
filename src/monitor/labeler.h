// Automatic runtime data labeling (paper Section II-B):
//
//   "PREPARE supports automatic runtime data labeling by matching the
//    timestamps of system-level metric measurements and SLO violation
//    logs."
//
// A measurement sample is labeled abnormal iff the application's SLO was
// violated at the sample's timestamp. The labeler turns a MetricStore +
// SloLog pair into per-VM labeled datasets for training the classifiers,
// one column per attribute: the layout the models train from.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "monitor/attributes.h"
#include "monitor/metric_store.h"
#include "monitor/slo_log.h"

namespace prepare {

/// One VM's labeled samples, oldest first.
struct LabeledSamples {
  std::vector<double> times;
  /// columns[a][r]: attribute a of sample r.
  std::array<std::vector<double>, kAttributeCount> columns;
  std::vector<bool> abnormal;

  std::size_t size() const { return times.size(); }
};

class Labeler {
 public:
  /// Labels every sample of `vm_name` in [t0, t1] against the SLO log
  /// (none for an unknown VM).
  static LabeledSamples label(const MetricStore& store, const SloLog& slo,
                              const std::string& vm_name, double t0,
                              double t1);

  /// Labels the full history of `vm_name`.
  static LabeledSamples label_all(const MetricStore& store, const SloLog& slo,
                                  const std::string& vm_name);
};

}  // namespace prepare
