// Trace persistence: save a recorded run (metric history + SLO log) to
// CSV and load it back. Lets users archive experiment traces, analyze
// them offline, and replay them through the trace-driven accuracy
// harness without re-running the simulation.
//
// Formats (plain CSV, one header row):
//   metrics: time_s, vm, cpu_util, ..., run_queue       (13 attr columns)
//   slo:     time_s, dt_s, violated, slo_metric
#pragma once

#include <string>

#include "monitor/metric_store.h"
#include "monitor/slo_log.h"

namespace prepare {

/// Writes every VM's samples, interleaved by time (grouped per VM per
/// timestamp). Throws std::runtime_error if the file cannot be opened or
/// written (CsvWriter's messages).
void save_metric_store_csv(const MetricStore& store,
                           const std::string& path);

/// Loads a store written by save_metric_store_csv. Throws on malformed
/// files (missing columns, non-monotone timestamps per VM).
MetricStore load_metric_store_csv(const std::string& path);

/// Writes the per-tick SLO record (violated flag + headline metric).
/// Throws std::runtime_error as save_metric_store_csv does.
void save_slo_log_csv(const SloLog& slo, const std::string& path);

/// Loads an SLO log written by save_slo_log_csv.
SloLog load_slo_log_csv(const std::string& path);

}  // namespace prepare
