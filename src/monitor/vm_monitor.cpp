#include "monitor/vm_monitor.h"

#include <algorithm>
#include <cmath>

namespace prepare {

VmMonitor::VmMonitor(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

VmMonitor::VmState& VmMonitor::state_of(const Vm& vm) {
  std::size_t slot = names_.find(vm.name());
  if (slot == NameTable::kNone) {
    slot = names_.add(vm.name());
    states_.emplace_back(config_.load1_alpha, config_.load5_alpha,
                         config_.graybox);
  }
  return states_[slot];
}

double VmMonitor::noisy(double value) {
  if (config_.noise <= 0.0) return value;
  // Relative noise plus a small absolute floor so zero-valued metrics
  // still jitter like real counters do.
  const double sigma = std::abs(value) * config_.noise + 1e-3;
  return value + rng_.gaussian(0.0, sigma);
}

AttributeVector VmMonitor::sample(const Vm& vm) {
  VmState& st = state_of(vm);

  // Runnable demand relative to the allocation: >1 when the VM wants more
  // CPU than its cap (a hog or an overload), like a per-VM load average.
  const double runnable =
      vm.cpu_alloc() > 0.0 ? vm.cpu_demand() / vm.cpu_alloc() : 0.0;
  const double load1 = st.load1.update(runnable);
  const double load5 = st.load5.update(runnable);

  // Paging pressure drives major fault and context-switch rates.
  const double pressure = vm.mem_alloc() > 0.0
                              ? vm.mem_demand() / vm.mem_alloc()
                              : 0.0;
  const double paging =
      pressure > 0.9 ? (pressure - 0.9) * 4000.0 : 0.0;
  const double ctx =
      2.0 + vm.cpu_utilization() * 6.0 + paging * 0.01;  // x1000 /s

  AttributeVector v{};
  set(v, Attribute::kCpuUtil, noisy(vm.cpu_utilization() * 100.0));
  set(v, Attribute::kCpuResidual, noisy(vm.cpu_alloc() - vm.cpu_used()));
  set(v, Attribute::kLoad1, noisy(load1));
  set(v, Attribute::kLoad5, noisy(load5));
  if (config_.memory_source == MemorySource::kInGuestDaemon) {
    set(v, Attribute::kFreeMem, noisy(vm.free_mem()));
    set(v, Attribute::kMemUtil,
        noisy(vm.mem_alloc() > 0.0
                  ? vm.mem_used() / vm.mem_alloc() * 100.0
                  : 0.0));
  } else {
    // Gray-box path: infer memory utilization from the (noisy, externally
    // visible) paging and disk signals instead of asking the guest.
    const double util_est = st.graybox.update(
        std::max(0.0, noisy(paging)), std::max(0.0, noisy(vm.disk_read())));
    const double used_est =
        std::min(vm.mem_alloc(), util_est * vm.mem_alloc());
    set(v, Attribute::kFreeMem, vm.mem_alloc() - used_est);
    set(v, Attribute::kMemUtil, used_est / vm.mem_alloc() * 100.0);
  }
  set(v, Attribute::kNetIn, noisy(vm.net_in()));
  set(v, Attribute::kNetOut, noisy(vm.net_out()));
  set(v, Attribute::kDiskRead, noisy(vm.disk_read()));
  set(v, Attribute::kDiskWrite, noisy(vm.disk_write()));
  set(v, Attribute::kPageFaults, std::max(0.0, noisy(paging)));
  set(v, Attribute::kCtxSwitches, std::max(0.0, noisy(ctx)));
  set(v, Attribute::kRunQueue, std::max(0.0, noisy(runnable * 3.0)));
  return v;
}

}  // namespace prepare
