#include "monitor/trace_io.h"

#include <algorithm>

#include <string>
#include <vector>

#include "common/check.h"
#include "common/csv.h"

namespace prepare {

void save_metric_store_csv(const MetricStore& store,
                           const std::string& path) {
  std::vector<std::string> header = {"time_s", "vm"};
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    header.push_back(attribute_name(static_cast<Attribute>(a)));
  CsvWriter csv(path, header);
  // All VMs share the sampling loop; emit rows grouped by sample index
  // so the file reads chronologically.
  std::size_t max_samples = 0;
  for (const auto& vm : store.vm_names())
    max_samples = std::max(max_samples, store.sample_count(vm));
  for (std::size_t i = 0; i < max_samples; ++i) {
    for (const auto& vm : store.vm_names()) {
      if (i >= store.sample_count(vm)) continue;
      std::vector<std::string> row;
      row.push_back(format_number(store.sample_time(vm, i)));
      row.push_back(vm);
      const auto values = store.sample(vm, i);
      for (double v : values) row.push_back(format_number(v));
      csv.row(row);
    }
  }
  csv.close();
}

MetricStore load_metric_store_csv(const std::string& path) {
  CsvReader csv(path);
  const std::size_t time_col = csv.column("time_s");
  const std::size_t vm_col = csv.column("vm");
  std::vector<std::size_t> attr_cols(kAttributeCount);
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    attr_cols[a] = csv.column(attribute_name(static_cast<Attribute>(a)));

  MetricStore store;
  std::vector<std::string> fields;
  while (csv.next(&fields)) {
    AttributeVector values{};
    for (std::size_t a = 0; a < kAttributeCount; ++a)
      values[a] = std::stod(fields[attr_cols[a]]);
    store.record(fields[vm_col], std::stod(fields[time_col]), values);
  }
  return store;
}

void save_slo_log_csv(const SloLog& slo, const std::string& path) {
  CsvWriter csv(path, {"time_s", "dt_s", "violated", "slo_metric"});
  const auto& trace = slo.metric_trace();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double t = trace.at(i).time;
    const double dt = i + 1 < trace.size()
                          ? trace.at(i + 1).time - t
                          : slo.last_time() - t;
    csv.row(std::vector<std::string>{
        format_number(t), format_number(dt),
        slo.violated_at(t) ? "1" : "0", format_number(trace.at(i).value)});
  }
  csv.close();
}

SloLog load_slo_log_csv(const std::string& path) {
  CsvReader csv(path);
  const std::size_t time_col = csv.column("time_s");
  const std::size_t dt_col = csv.column("dt_s");
  const std::size_t violated_col = csv.column("violated");
  const std::size_t metric_col = csv.column("slo_metric");
  SloLog slo;
  std::vector<std::string> fields;
  while (csv.next(&fields)) {
    slo.record(std::stod(fields[time_col]), std::stod(fields[dt_col]),
               fields[violated_col] == "1", std::stod(fields[metric_col]));
  }
  return slo;
}

}  // namespace prepare
