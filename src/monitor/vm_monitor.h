// Out-of-band VM monitor: the libxenstat stand-in.
//
// Reads usage out of a simulated Vm the way PREPARE's monitoring module
// reads a Xen domain from dom0 — allocation and usage only, with
// measurement noise, never application internals. Load averages and the
// paging/context-switch rates are derived the way a real kernel exposes
// them (EWMAs of runnable demand, pressure-driven fault rate).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "monitor/attributes.h"
#include "monitor/memory_estimator.h"
#include "monitor/name_table.h"
#include "sim/vm.h"

namespace prepare {

/// Where the guest memory attributes (free_mem, mem_util) come from:
///  * kInGuestDaemon — the paper's default: a light daemon inside the
///    guest reports real usage (/proc);
///  * kGrayboxInference — the Section V alternative: usage is inferred
///    from externally visible paging signals, no guest cooperation.
enum class MemorySource { kInGuestDaemon, kGrayboxInference };

struct VmMonitorConfig {
  /// Relative gaussian measurement noise applied to every attribute.
  double noise = 0.02;
  /// EWMA horizon factors; with a 5 s sampling interval these give
  /// roughly 1-minute and 5-minute load averages.
  double load1_alpha = 0.08;
  double load5_alpha = 0.017;
  MemorySource memory_source = MemorySource::kInGuestDaemon;
  GrayboxMemoryConfig graybox;
};

class VmMonitor {
 public:
  using Config = VmMonitorConfig;

  explicit VmMonitor(Config config = {}, std::uint64_t seed = 11);

  /// Takes one sample of `vm`. Must be called once per sampling interval
  /// per VM (it advances the per-VM EWMA state, found by the VM's name).
  AttributeVector sample(const Vm& vm);

  const Config& config() const { return config_; }

 private:
  struct VmState {
    Ewma load1;
    Ewma load5;
    GrayboxMemoryEstimator graybox;
    VmState(double a1, double a5, const GrayboxMemoryConfig& g)
        : load1(a1), load5(a5), graybox(g) {}
  };

  VmState& state_of(const Vm& vm);
  double noisy(double value);

  Config config_;
  Rng rng_;
  NameTable names_;
  std::vector<VmState> states_;  ///< by slot of names_
};

}  // namespace prepare
