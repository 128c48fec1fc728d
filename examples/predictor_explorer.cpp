// Exploring the anomaly-prediction model on its own: trains a per-VM
// predictor from a recorded run and walks the second fault injection
// sample by sample, printing what the model believes the future looks
// like — predicted free memory, the classifier's log-odds score, and the
// TAN attribution ranking (the paper's Fig. 3 view, live).
#include <cstdio>

#include "core/anomaly_predictor.h"
#include "core/experiment.h"
#include "monitor/labeler.h"

using namespace prepare;

int main() {
  // Record a System S memory-leak run without intervention.
  ScenarioConfig config;
  config.app = AppKind::kSystemS;
  config.fault = FaultKind::kMemoryLeak;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 7;
  const ScenarioResult trace = run_scenario(config);
  const std::string& vm = trace.faulty_vm;
  std::printf("faulty VM: %s; violations:", vm.c_str());
  for (const auto& iv : trace.slo.intervals())
    std::printf(" [%.0f, %.0f]", iv.start, iv.end);
  std::printf("\n\n");

  // Train on everything up to t = 700 (covers the first injection).
  std::vector<std::string> features;
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    features.push_back(attribute_name(static_cast<Attribute>(a)));
  AnomalyPredictor predictor(features);
  const LabeledSamples samples =
      Labeler::label(trace.store, trace.slo, vm, 0, 700);
  predictor.train(samples.columns, samples.abnormal);
  std::printf("trained on %zu samples (train TPR %.0f%%, %s)\n\n",
              samples.size(), predictor.train_tpr() * 100.0,
              predictor.discriminative() ? "discriminative"
                                         : "non-discriminative");

  // Replay from t > 700 and inspect the model around the second leak.
  const std::size_t kFreeMem = static_cast<std::size_t>(Attribute::kFreeMem);
  std::printf("%7s %10s %12s %8s %7s  %s\n", "t(s)", "free_mem",
              "pred@+120s", "score", "alarm", "top metrics (L_i)");
  const std::size_t total = trace.store.sample_count(vm);
  for (std::size_t i = 0; i < total; ++i) {
    const double t = trace.store.sample_time(vm, i);
    if (t <= 700.0) continue;
    const auto sample = trace.store.sample(vm, i);
    predictor.observe(sample);
    if (!predictor.ready() || static_cast<long>(t) % 25 != 0) continue;
    if (t > 1120.0) break;
    const auto result = predictor.predict(TickIndex{24});  // 120 s at 5 s sampling
    const auto order =
        Classifier::ranked_attributes(result.classification);
    std::printf("%7.0f %10.0f %12.0f %8.2f %7s  ", t, sample[kFreeMem],
                result.predicted_values[kFreeMem],
                result.classification.score.value(),
                result.classification.abnormal ? "ALARM" : "-");
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t a = order[k];
      if (result.classification.impacts[a] <= 0.0) break;
      std::printf("%s(%.1f) ", features[a].c_str(),
                  result.classification.impacts[a]);
    }
    std::printf("\n");
  }
  return 0;
}
