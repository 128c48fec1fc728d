#include "monitor/trace_io.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/csv.h"

namespace prepare {

namespace {

/// The whole of `field` as a double; throws std::runtime_error naming the
/// field and its column otherwise (std::stod alone would read "1.5x" as
/// 1.5 and report any other failure only as "stod").
double parse_field(const std::string& field, const std::string& column) {
  bool whole = false;
  double value = 0.0;
  try {
    std::size_t used = 0;
    value = std::stod(field, &used);
    whole = used == field.size();
  } catch (const std::logic_error&) {
    // std::invalid_argument, or std::out_of_range
  }
  if (!whole)
    throw std::runtime_error("malformed number '" + field + "' in column " +
                             column);
  return value;
}

}  // namespace

void save_metric_store_csv(const MetricStore& store,
                           const std::string& path) {
  std::vector<std::string> header = {"time_s", "vm"};
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    header.push_back(attribute_name(static_cast<Attribute>(a)));
  CsvWriter csv(path, header);
  // All VMs share the sampling loop; emit rows grouped by sample index
  // so the file reads chronologically.
  const std::vector<std::string>& names = store.vm_names();
  std::vector<const MetricStore::History*> histories;
  std::size_t max_samples = 0;
  for (const auto& vm : names) {
    histories.push_back(store.history(vm));
    max_samples = std::max(max_samples, histories.back()->size());
  }
  std::vector<std::string> row;
  for (std::size_t i = 0; i < max_samples; ++i) {
    for (std::size_t v = 0; v < names.size(); ++v) {
      const MetricStore::History& h = *histories[v];
      if (i >= h.size()) continue;
      row.clear();
      row.push_back(format_number(h.times[i]));
      row.push_back(names[v]);
      for (double value : h.rows[i]) row.push_back(format_number(value));
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
      values[a] = parse_field(fields[attr_cols[a]],
                              attribute_name(static_cast<Attribute>(a)));
    store.record(fields[vm_col], parse_field(fields[time_col], "time_s"),
                 values);
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
    slo.record(parse_field(fields[time_col], "time_s"),
               parse_field(fields[dt_col], "dt_s"),
               fields[violated_col] == "1",
               parse_field(fields[metric_col], "slo_metric"));
  }
  return slo;
}

}  // namespace prepare
