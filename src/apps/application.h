// Application model interface.
//
// An Application owns the mapping from offered workload to per-VM resource
// demands and from granted resources back to its service-level metric.
// PREPARE itself never looks inside an Application — it only sees the
// per-VM system metrics (via the monitor) and the SLO violation flag (via
// the SLO tracker), exactly matching the paper's black-box assumption.
//
// Threading contract: the whole simulation layer (applications, VMs,
// hypervisor, clock) is confined to the single driver thread — step()
// and the accessors are never called concurrently, and implementations
// hold plain unguarded state (audited: no threads/atomics in
// web_app.cpp or stream_app.cpp). The controller's management round
// runs on the same thread (see DESIGN.md "Concurrency model & locking
// discipline").
// Machine-checked: the interface carries PREPARE_DRIVER_CONFINED and
// tools/prepare_analyze.py proves no worker lambda reaches it.
#pragma once

#include <string>
#include <vector>

#include "common/analyze_annotations.h"
#include "sim/vm.h"

namespace prepare {

class PREPARE_DRIVER_CONFINED Application {
 public:
  virtual ~Application() = default;

  /// Advances the application by one tick: registers CPU/memory/net/disk
  /// demands on its VMs, resolves them (Vm::finalize_tick) and updates the
  /// SLO metric. Fault demands must already be registered on the VMs.
  virtual void step(double now, double dt) = 0;

  /// Whether the SLO is currently violated (evaluated at the last step).
  virtual bool slo_violated() const = 0;

  /// Current value of the headline SLO metric (throughput for the stream
  /// system, average response time for the web application).
  virtual double slo_metric() const = 0;
  virtual std::string slo_metric_name() const = 0;

  /// VMs this application runs on (one component per VM).
  virtual std::vector<Vm*> vms() const = 0;

  /// Offered workload intensity at the last step (requests or tuples /s).
  virtual double offered_rate() const = 0;
};

}  // namespace prepare
