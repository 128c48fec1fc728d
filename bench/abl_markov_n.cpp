// Ablation: Markov context length beyond the paper's order 2.
//
// The paper generalizes order-1 to order-2 to capture attribute slopes;
// this bench asks whether going further helps. Order 3 squares the
// per-attribute state space again (alphabet^3 transition rows), so with
// a few hundred training samples the model starves — the expected result
// is order 2 at or near the top, the diminishing-returns argument for
// the paper's choice.
#include <cstdio>

#include "accuracy_util.h"

using namespace prepare;
using namespace prepare::bench;

int main() {
  std::printf("ablation: Markov context length (memory leak, System S)\n\n");
  CsvWriter csv(csv_path("abl_markov_n"),
                {"figure", "panel", "model", "lookahead_s", "at_pct",
                 "af_pct"});
  const auto trace = record_trace(AppKind::kSystemS, FaultKind::kMemoryLeak);
  const auto vms = trace.store.vm_names();
  std::vector<Curve> curves;
  for (std::size_t order : {1u, 2u, 3u}) {
    Curve curve{"order " + std::to_string(order), {}};
    for (double lookahead : lookaheads()) {
      AccuracyConfig config;
      config.predictor.markov_order = order;
      curve.points.push_back(
          evaluate_accuracy(trace.store, trace.slo, vms, lookahead, config));
    }
    curves.push_back(std::move(curve));
  }
  emit_curves("abl_markov_n", "Memory leak (System S)", curves, &csv);
  global_meter.report("abl_markov_n");
  std::printf("-> %s\n", csv_path("abl_markov_n").c_str());
  return 0;
}
