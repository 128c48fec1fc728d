// Fig. 11: prediction accuracy of the 2-dependent Markov value predictor
// vs. the simple (order-1) Markov chain.
//
// Paper result to reproduce (shape): the 2-dependent model achieves a
// higher true positive rate, especially at larger look-ahead windows,
// because the pair state captures the slope of trending attributes.
#include "accuracy_util.h"

using namespace prepare;
using namespace prepare::bench;

int main() {
  std::printf("fig11: 2-dependent vs simple Markov value prediction\n\n");
  CsvWriter csv(csv_path("fig11"), {"figure", "panel", "model",
                                    "lookahead_s", "at_pct", "af_pct"});
  struct Panel {
    const char* label;
    AppKind app;
    FaultKind fault;
  };
  const Panel panels[] = {
      {"(a) Memory leak (System S)", AppKind::kSystemS,
       FaultKind::kMemoryLeak},
      {"(b) Bottleneck (RUBiS)", AppKind::kRubis, FaultKind::kBottleneck},
  };
  for (const Panel& panel : panels) {
    const auto trace = record_trace(panel.app, panel.fault);
    const auto vms = trace.store.vm_names();
    Curve two{"2-dep Markov", {}}, one{"simple Markov", {}};
    for (double lookahead : lookaheads()) {
      AccuracyConfig config;
      config.predictor.markov_order = 2;
      two.points.push_back(
          evaluate_accuracy(trace.store, trace.slo, vms, lookahead, config));
      config.predictor.markov_order = 1;
      one.points.push_back(
          evaluate_accuracy(trace.store, trace.slo, vms, lookahead, config));
    }
    emit_curves("fig11", panel.label, {two, one}, &csv);
  }
  global_meter.report("fig11");
  std::printf("-> %s\n", csv_path("fig11").c_str());
  return 0;
}
