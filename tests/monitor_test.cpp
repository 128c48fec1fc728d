#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "monitor/attributes.h"
#include "monitor/metric_store.h"
#include "monitor/vm_monitor.h"
#include "sim/vm.h"

namespace prepare {
namespace {

TEST(Attributes, ThirteenAttributes) {
  EXPECT_EQ(kAttributeCount, 13u);
}

TEST(Attributes, NamesRoundTrip) {
  for (std::size_t a = 0; a < kAttributeCount; ++a) {
    const Attribute attr = static_cast<Attribute>(a);
    EXPECT_EQ(attribute_from_name(attribute_name(attr)), attr);
  }
}

TEST(Attributes, UnknownNameThrows) {
  EXPECT_THROW(attribute_from_name("bogus"), CheckFailure);
}

TEST(Attributes, GetSetHelpers) {
  AttributeVector v{};
  set(v, Attribute::kFreeMem, 123.0);
  EXPECT_DOUBLE_EQ(get(v, Attribute::kFreeMem), 123.0);
}

class VmMonitorTest : public ::testing::Test {
 protected:
  static VmMonitor noiseless() {
    VmMonitorConfig c;
    c.noise = 0.0;
    return VmMonitor(c, 1);
  }

  static Vm busy_vm() {
    Vm vm("v", 1.0, 512.0);
    vm.begin_tick();
    vm.set_app_cpu_demand(0.5);
    vm.set_app_mem_demand(312.0);
    vm.set_net_in(100.0);
    vm.set_net_out(80.0);
    vm.set_disk_read(5.0);
    vm.set_disk_write(10.0);
    vm.finalize_tick();
    return vm;
  }
};

TEST_F(VmMonitorTest, NoiselessSampleMatchesVmState) {
  VmMonitor monitor = noiseless();
  Vm vm = busy_vm();
  const AttributeVector v = monitor.sample(vm);
  EXPECT_NEAR(get(v, Attribute::kCpuUtil), 50.0, 1e-2);
  EXPECT_NEAR(get(v, Attribute::kCpuResidual), 0.5, 1e-2);
  EXPECT_NEAR(get(v, Attribute::kFreeMem), 200.0, 1e-2);
  EXPECT_NEAR(get(v, Attribute::kMemUtil), 312.0 / 512.0 * 100.0, 1e-2);
  EXPECT_NEAR(get(v, Attribute::kNetIn), 100.0, 1e-2);
  EXPECT_NEAR(get(v, Attribute::kNetOut), 80.0, 1e-2);
  EXPECT_NEAR(get(v, Attribute::kDiskRead), 5.0, 1e-2);
  EXPECT_NEAR(get(v, Attribute::kDiskWrite), 10.0, 1e-2);
}

TEST_F(VmMonitorTest, LoadAveragesConvergeToRunnableRatio) {
  VmMonitor monitor = noiseless();
  Vm vm = busy_vm();
  AttributeVector v{};
  for (int i = 0; i < 400; ++i) v = monitor.sample(vm);
  EXPECT_NEAR(get(v, Attribute::kLoad1), 0.5, 0.02);
  EXPECT_NEAR(get(v, Attribute::kLoad5), 0.5, 0.05);
}

TEST_F(VmMonitorTest, Load1ReactsFasterThanLoad5) {
  VmMonitor monitor = noiseless();
  Vm vm = busy_vm();
  for (int i = 0; i < 200; ++i) monitor.sample(vm);
  // Demand doubles: load1 moves first.
  vm.begin_tick();
  vm.set_app_cpu_demand(1.0);
  vm.set_app_mem_demand(312.0);
  vm.finalize_tick();
  AttributeVector v{};
  for (int i = 0; i < 5; ++i) v = monitor.sample(vm);
  EXPECT_GT(get(v, Attribute::kLoad1), get(v, Attribute::kLoad5));
}

TEST_F(VmMonitorTest, PageFaultsTrackMemoryPressure) {
  VmMonitor monitor = noiseless();
  Vm vm("v", 1.0, 512.0);
  vm.begin_tick();
  vm.set_app_mem_demand(100.0);
  vm.finalize_tick();
  EXPECT_NEAR(get(monitor.sample(vm), Attribute::kPageFaults), 0.0, 1e-2);
  vm.begin_tick();
  vm.set_app_mem_demand(560.0);  // pressure ~1.09
  vm.finalize_tick();
  EXPECT_GT(get(monitor.sample(vm), Attribute::kPageFaults), 100.0);
}

TEST_F(VmMonitorTest, NoiseJittersButStaysClose) {
  VmMonitorConfig c;
  c.noise = 0.02;
  VmMonitor monitor(c, 42);
  Vm vm = busy_vm();
  double sum = 0.0;
  bool any_diff = false;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const double x = get(monitor.sample(vm), Attribute::kCpuUtil);
    any_diff |= x != 50.0;
    sum += x;
  }
  EXPECT_TRUE(any_diff);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(MetricStore, RecordAndQuery) {
  MetricStore store;
  AttributeVector v{};
  set(v, Attribute::kCpuUtil, 10.0);
  store.record("vm1", 0.0, v);
  set(v, Attribute::kCpuUtil, 20.0);
  store.record("vm1", 5.0, v);
  EXPECT_EQ(store.sample_count("vm1"), 2u);
  EXPECT_EQ(store.sample_count("ghost"), 0u);
  EXPECT_DOUBLE_EQ(store.sample_time("vm1", 1), 5.0);
  EXPECT_DOUBLE_EQ(get(store.sample("vm1", 1), Attribute::kCpuUtil), 20.0);
  EXPECT_DOUBLE_EQ(store.series("vm1", Attribute::kCpuUtil).back().value,
                   20.0);
}

TEST(MetricStore, VmNamesInFirstSeenOrder) {
  MetricStore store;
  AttributeVector v{};
  store.record("b", 0.0, v);
  store.record("a", 0.0, v);
  store.record("b", 5.0, v);
  ASSERT_EQ(store.vm_names().size(), 2u);
  EXPECT_EQ(store.vm_names()[0], "b");
  EXPECT_EQ(store.vm_names()[1], "a");
}

TEST(MetricStore, LatestSampleIsTheNewest) {
  MetricStore store;
  EXPECT_FALSE(store.latest_sample("vm").has_value());
  AttributeVector v{};
  for (int i = 0; i < 5; ++i) {
    set(v, Attribute::kNetIn, static_cast<double>(i));
    store.record("vm", i * 5.0, v);
  }
  const auto latest = store.latest_sample("vm");
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(get(*latest, Attribute::kNetIn), 4.0);
}

TEST(MetricStore, NonFiniteSamplesAreRejected) {
  MetricStore store;
  AttributeVector v{};
  store.record("vm", 0.0, v);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    AttributeVector corrupt = v;
    set(corrupt, Attribute::kFreeMem, bad);
    EXPECT_THROW(store.record("vm", 5.0, corrupt), CheckFailure) << bad;
    EXPECT_THROW(store.record("new", 5.0, corrupt), CheckFailure) << bad;
  }
  // Nothing was stored: the series stay aligned, no VM was added.
  EXPECT_EQ(store.sample_count("vm"), 1u);
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    EXPECT_EQ(store.series("vm", static_cast<Attribute>(a)).size(), 1u);
  EXPECT_EQ(store.vm_names(), std::vector<std::string>{"vm"});
}

TEST(MetricStore, UnknownVmThrows) {
  MetricStore store;
  EXPECT_THROW(store.series("nope", Attribute::kCpuUtil), CheckFailure);
  EXPECT_THROW(store.sample("nope", 0), CheckFailure);
}

TEST(MetricStore, ClearEmpties) {
  MetricStore store;
  AttributeVector v{};
  store.record("vm", 0.0, v);
  store.clear();
  EXPECT_EQ(store.sample_count("vm"), 0u);
  EXPECT_TRUE(store.vm_names().empty());
}

}  // namespace
}  // namespace prepare
