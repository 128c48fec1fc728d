#include "core/accuracy.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/alarm_filter.h"
#include "monitor/labeler.h"

namespace prepare {

namespace {

std::vector<std::string> feature_names_for(
    const std::vector<std::string>& vm_names, bool per_component,
    std::size_t vm_index) {
  std::vector<std::string> names;
  auto add_vm = [&](const std::string& vm) {
    for (std::size_t a = 0; a < kAttributeCount; ++a)
      names.push_back(vm + "." +
                      attribute_name(static_cast<Attribute>(a)));
  };
  if (per_component)
    add_vm(vm_names[vm_index]);
  else
    for (const auto& vm : vm_names) add_vm(vm);
  return names;
}

}  // namespace

AccuracyResult evaluate_accuracy(const MetricStore& store, const SloLog& slo,
                                 const std::vector<std::string>& vm_names,
                                 double lookahead_s,
                                 const AccuracyConfig& config) {
  PREPARE_CHECK(!vm_names.empty());
  PREPARE_CHECK(lookahead_s > 0.0);
  const auto steps = static_cast<std::size_t>(std::max(
      1.0, std::round(lookahead_s / config.sampling_interval_s)));

  // All VMs are sampled by the same loop, so their sample indices align.
  std::vector<const MetricStore::History*> histories;
  for (const auto& vm : vm_names) {
    histories.push_back(store.history(vm));
    PREPARE_CHECK_MSG(histories.back() != nullptr, "unknown VM: " + vm);
  }
  const std::vector<double>& times = histories[0]->times;
  const std::size_t total = times.size();
  for (const MetricStore::History* h : histories)
    PREPARE_CHECK_MSG(h->size() == total, "unaligned sample histories");
  PREPARE_CHECK_MSG(total >= steps + 2, "trace too short");

  // Assemble aligned rows: per VM, or concatenated for the monolithic
  // model.
  const std::size_t models = config.per_component ? vm_names.size() : 1;
  std::vector<AnomalyPredictor> predictors;
  predictors.reserve(models);
  for (std::size_t m = 0; m < models; ++m)
    predictors.emplace_back(
        feature_names_for(vm_names, config.per_component, m),
        config.predictor);

  auto row_for = [&](std::size_t model, std::size_t index) {
    std::vector<double> row;
    if (config.per_component) {
      const AttributeVector& v = histories[model]->rows[index];
      row.assign(v.begin(), v.end());
    } else {
      for (const MetricStore::History* h : histories) {
        const AttributeVector& v = h->rows[index];
        row.insert(row.end(), v.begin(), v.end());
      }
    }
    return row;
  };

  // Train on [0, train_end], one column per feature.
  for (std::size_t m = 0; m < models; ++m) {
    std::vector<std::vector<double>> columns(predictors[m].feature_count());
    std::vector<bool> abnormal;
    for (std::size_t i = 0; i < total; ++i) {
      const double t = times[i];
      if (t > config.train_end) break;
      const std::vector<double> row = row_for(m, i);
      for (std::size_t f = 0; f < row.size(); ++f) columns[f].push_back(row[f]);
      abnormal.push_back(slo.violated_at(t));
    }
    PREPARE_CHECK_MSG(!abnormal.empty(),
                      "no training samples before train_end");
    predictors[m].train(columns, abnormal);
  }

  // Replay the test window.
  AccuracyResult result;
  AlarmFilter filter(config.filter_k, config.filter_w);
  for (std::size_t i = 0; i < total; ++i) {
    const double t = times[i];
    if (t <= config.train_end) continue;
    for (std::size_t m = 0; m < models; ++m)
      predictors[m].observe(row_for(m, i));
    if (t < config.test_start) continue;
    if (i + steps >= total) break;

    bool raw_alert = false;
    for (std::size_t m = 0; m < models; ++m) {
      if (!predictors[m].ready()) continue;
      if (config.require_discriminative && !predictors[m].discriminative())
        continue;
      const auto cls = predictors[m].predict(TickIndex{steps}).classification;
      double top = 0.0;
      for (double impact : cls.impacts) top = std::max(top, impact);
      if (cls.abnormal && top >= config.alert_min_top_impact) {
        raw_alert = true;
        break;
      }
    }
    const bool predicted = filter.push(raw_alert);
    const double horizon = times[i + steps];
    const bool truth = slo.violated_at(horizon);
    if (config.keep_predictions)
      result.samples.push_back({t, predicted, truth});
    if (truth && predicted) ++result.tp;
    else if (truth && !predicted) ++result.fn;
    else if (!truth && predicted) ++result.fp;
    else ++result.tn;
  }

  if (result.tp + result.fn > 0)
    result.a_t = static_cast<double>(result.tp) /
                 static_cast<double>(result.tp + result.fn);
  if (result.fp + result.tn > 0)
    result.a_f = static_cast<double>(result.fp) /
                 static_cast<double>(result.fp + result.tn);
  return result;
}

}  // namespace prepare
