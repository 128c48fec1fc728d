// Table I: PREPARE system overhead measurements.
//
// Microbenchmarks (google-benchmark) of every key module, mirroring the
// paper's table:
//
//   VM monitoring (13 attributes)             4.68 ms   (paper)
//   Simple Markov model training (600)        61.0 ms
//   2-dep. Markov model training (600)        135.1 ms
//   TAN model training (600)                  4.0 ms
//   Anomaly prediction                        1.3 ms
//   CPU resource scaling                      107 ms
//   Memory resource scaling                   116 ms
//   Live VM migration (512 MB)                8.56 s
//
// Absolute numbers will differ (2012 Xeon vs. today's hardware; our
// monitoring reads a simulated VM instead of libxenstat), but the
// *ordering* should hold: TAN training and prediction are cheap,
// 2-dependent Markov training costs ~2x simple Markov training, and the
// actuation latencies are properties of the virtualization platform —
// for those we report the calibrated latencies of the hypervisor model,
// which match the paper by construction.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/anomaly_predictor.h"
#include "models/markov_bank.h"
#include "models/tan.h"
#include "monitor/vm_monitor.h"
#include "sim/clock.h"
#include "sim/cluster.h"
#include "sim/hypervisor.h"

namespace prepare {
namespace {

constexpr std::size_t kTrainingSamples = 600;
constexpr std::size_t kBins = 5;

/// 600 samples x 13 attributes of leak-shaped training data.
struct TrainingData {
  std::vector<std::vector<double>> columns;  // per attribute
  std::vector<bool> abnormal;
  std::vector<std::vector<std::size_t>> symbol_columns;  // per attribute
};

const TrainingData& training_data() {
  static const TrainingData data = [] {
    TrainingData out;
    Rng rng(17);
    out.columns.resize(kAttributeCount);
    for (std::size_t i = 0; i < kTrainingSamples; ++i) {
      const bool abnormal = i > 400 && i < 480;
      for (std::size_t a = 0; a < kAttributeCount; ++a) {
        double base = 50.0 + 10.0 * static_cast<double>(a);
        if (abnormal) base *= 1.8;
        if (i > 340 && i <= 480) base += static_cast<double>(i - 340);
        out.columns[a].push_back(base + rng.gaussian(0.0, 2.0));
      }
      out.abnormal.push_back(abnormal);
    }
    out.symbol_columns.resize(kAttributeCount);
    for (std::size_t a = 0; a < kAttributeCount; ++a)
      for (std::size_t i = 0; i < kTrainingSamples; ++i)
        out.symbol_columns[a].push_back(
            static_cast<std::size_t>(out.columns[a][i]) % kBins);
    return out;
  }();
  return data;
}

void BM_VmMonitoring13Attributes(benchmark::State& state) {
  VmMonitor monitor(VmMonitorConfig{}, 1);
  Vm vm("vm", 1.0, 512.0);
  vm.begin_tick();
  vm.set_app_cpu_demand(0.4);
  vm.set_app_mem_demand(300.0);
  vm.set_net_in(100.0);
  vm.set_net_out(90.0);
  vm.finalize_tick();
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.sample(vm));
  }
}
BENCHMARK(BM_VmMonitoring13Attributes);

/// Builds and trains a bank of the 13 attributes' order-`order` chains.
void markov_training(benchmark::State& state, std::size_t order) {
  const auto& data = training_data();
  const std::vector<std::size_t> alphabets(kAttributeCount, kBins);
  for (auto _ : state) {
    MarkovBank bank(order, alphabets, 0.5, data.symbol_columns);
    benchmark::DoNotOptimize(bank);
  }
}

void BM_SimpleMarkovTraining600(benchmark::State& state) {
  markov_training(state, 1);
}
BENCHMARK(BM_SimpleMarkovTraining600);

void BM_TwoDepMarkovTraining600(benchmark::State& state) {
  markov_training(state, 2);
}
BENCHMARK(BM_TwoDepMarkovTraining600);

void BM_TanTraining600(benchmark::State& state) {
  const auto& data = training_data();
  LabeledDataset dataset;
  dataset.alphabet.assign(kAttributeCount, kBins);
  for (std::size_t i = 0; i < kTrainingSamples; ++i) {
    std::vector<std::size_t> row;
    for (std::size_t a = 0; a < kAttributeCount; ++a)
      row.push_back(data.symbol_columns[a][i]);
    dataset.rows.push_back(std::move(row));
    dataset.abnormal.push_back(data.abnormal[i]);
  }
  for (auto _ : state) {
    TanClassifier tan;
    tan.train(dataset);
    benchmark::DoNotOptimize(tan);
  }
}
BENCHMARK(BM_TanTraining600);

void BM_FullPredictorTraining600(benchmark::State& state) {
  const auto& data = training_data();
  std::vector<std::string> names;
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    names.push_back(attribute_name(static_cast<Attribute>(a)));
  for (auto _ : state) {
    AnomalyPredictor predictor(names);
    predictor.train(data.columns, data.abnormal);
    benchmark::DoNotOptimize(predictor);
  }
}
BENCHMARK(BM_FullPredictorTraining600);

void BM_AnomalyPrediction(benchmark::State& state) {
  // One prediction = 13 attribute-value forecasts at the look-ahead
  // horizon + TAN classification + attribute attribution.
  const auto& data = training_data();
  std::vector<std::string> names;
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    names.push_back(attribute_name(static_cast<Attribute>(a)));
  AnomalyPredictor predictor(names);
  predictor.train(data.columns, data.abnormal);
  for (auto _ : state) {
    const auto result = predictor.predict(TickIndex{6});
    benchmark::DoNotOptimize(
        Classifier::ranked_attributes(result.classification));
  }
}
BENCHMARK(BM_AnomalyPrediction);

/// Actuation latencies are platform properties: the benchmark measures
/// the control-plane call cost, and the modeled end-to-end latency
/// (which matches the paper's Table I by calibration) is reported as the
/// "modeled_latency_s" counter.
void BM_CpuScalingIssue(benchmark::State& state) {
  SimClock clock;
  Cluster cluster;
  EventLog log;
  Hypervisor hypervisor(&clock, &cluster, &log);
  Host* host = cluster.add_host("h");
  Vm* vm = cluster.add_vm("vm", 1.0, 512.0, host);
  double target = 1.1;
  for (auto _ : state) {
    hypervisor.scale_cpu(vm, target);
    clock.advance(Seconds{1.0});
    target = target > 1.4 ? 1.1 : target + 0.1;
  }
  state.counters["modeled_latency_s"] =
      hypervisor.config().cpu_scale_latency_s;
}
BENCHMARK(BM_CpuScalingIssue);

void BM_MemoryScalingIssue(benchmark::State& state) {
  SimClock clock;
  Cluster cluster;
  EventLog log;
  Hypervisor hypervisor(&clock, &cluster, &log);
  Host* host = cluster.add_host("h");
  Vm* vm = cluster.add_vm("vm", 1.0, 512.0, host);
  double target = 600.0;
  for (auto _ : state) {
    hypervisor.scale_memory(vm, target);
    clock.advance(Seconds{1.0});
    target = target > 1000.0 ? 600.0 : target + 64.0;
  }
  state.counters["modeled_latency_s"] =
      hypervisor.config().mem_scale_latency_s;
}
BENCHMARK(BM_MemoryScalingIssue);

void BM_LiveMigration512MB(benchmark::State& state) {
  SimClock clock;
  Cluster cluster;
  EventLog log;
  Hypervisor hypervisor(&clock, &cluster, &log);
  Host* a = cluster.add_host("a");
  Host* b = cluster.add_host("b");
  Vm* vm = cluster.add_vm("vm", 1.0, 512.0, a);
  Host* target = b;
  Host* source = a;
  for (auto _ : state) {
    hypervisor.migrate(vm, target);
    clock.advance(Seconds{hypervisor.migration_duration(512.0) + 1.0});
    std::swap(source, target);
  }
  state.counters["modeled_latency_s"] = hypervisor.migration_duration(512.0);
}
BENCHMARK(BM_LiveMigration512MB);

}  // namespace
}  // namespace prepare

BENCHMARK_MAIN();
