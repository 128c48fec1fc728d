// Standalone HTML run report: one self-contained file with inline SVG
// charts — the SLO metric trace with violation shading and management-
// event markers, plus per-VM CPU and memory panels. No external assets,
// so the file can be archived next to the trace CSVs.
#pragma once

#include <string>

#include "monitor/metric_store.h"
#include "monitor/slo_log.h"
#include "sim/event_log.h"

namespace prepare {

struct ReportInput {
  const MetricStore* store = nullptr;  ///< required
  const SloLog* slo = nullptr;         ///< required
  const EventLog* events = nullptr;    ///< optional (event markers)
  std::string title = "PREPARE run report";
  std::string slo_metric_name = "SLO metric";
};

/// Renders the report as a single HTML document.
std::string render_html_report(const ReportInput& input);

/// Renders and writes to `path`. Throws std::runtime_error, with the
/// message "cannot open PATH for writing" or "cannot write PATH", when
/// the file cannot be opened or the written report cannot be flushed.
void write_html_report(const ReportInput& input, const std::string& path);

}  // namespace prepare
