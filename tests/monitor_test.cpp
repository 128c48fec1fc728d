#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "monitor/attributes.h"
#include "monitor/metric_store.h"
#include "monitor/vm_monitor.h"
#include "sim/vm.h"
#include "timeseries/timeseries.h"

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
  const MetricStore::History* history = store.history("vm1");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->times, (std::vector<double>{0.0, 5.0}));
  EXPECT_DOUBLE_EQ(get(history->rows.back(), Attribute::kCpuUtil), 20.0);
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
  EXPECT_EQ(store.latest_sample("vm"), nullptr);
  AttributeVector v{};
  for (int i = 0; i < 5; ++i) {
    set(v, Attribute::kNetIn, static_cast<double>(i));
    store.record("vm", i * 5.0, v);
  }
  const AttributeVector* latest = store.latest_sample("vm");
  ASSERT_NE(latest, nullptr);
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
  // Nothing was stored: the times and rows stay aligned, no VM was added.
  EXPECT_EQ(store.sample_count("vm"), 1u);
  EXPECT_EQ(store.history("vm")->rows.size(), 1u);
  EXPECT_EQ(store.vm_names(), std::vector<std::string>{"vm"});
}

TEST(MetricStore, UnknownVmThrows) {
  MetricStore store;
  EXPECT_EQ(store.history("nope"), nullptr);
  EXPECT_THROW(store.sample("nope", 0), CheckFailure);
  EXPECT_THROW(store.sample_time("nope", 0), CheckFailure);
  store.record("vm", 0.0, AttributeVector{});
  EXPECT_THROW(store.sample("vm", 1), CheckFailure);
  EXPECT_THROW(store.sample_time("vm", 1), CheckFailure);
}

TEST(MetricStore, ClearEmpties) {
  MetricStore store;
  AttributeVector v{};
  store.record("vm", 0.0, v);
  store.clear();
  EXPECT_EQ(store.sample_count("vm"), 0u);
  EXPECT_TRUE(store.vm_names().empty());
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// The window mean sums a column of rows, oldest first: the same
// additions, in the same order, as TimeSeries::mean_between over that
// attribute's series. Values of mixed magnitude make the order show.
TEST(MetricStore, WindowMeanIsTimeSeriesMeanBitForBit) {
  Rng rng(2024);
  MetricStore store;
  std::array<TimeSeries, kAttributeCount> series;
  std::vector<double> times;
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += rng.chance(0.5) ? 5.0 : rng.uniform(0.1, 9.0);
    AttributeVector row{};
    for (std::size_t a = 0; a < kAttributeCount; ++a) {
      row[a] = rng.uniform(-1.0, 1.0) *
               std::pow(10.0, static_cast<double>(rng.uniform_int(-8, 8)));
      series[a].append(t, row[a]);
    }
    store.record("vm", t, row);
    times.push_back(t);
  }
  const MetricStore::History& history = *store.history("vm");
  const auto any_time = [&] {
    return times[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(times.size()) - 1))];
  };
  std::size_t empty = 0, single = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    double t0 = 0.0, t1 = 0.0;
    switch (trial % 5) {
      case 0:  // anywhere, either way round, past both ends
        t0 = rng.uniform(-20.0, t + 20.0);
        t1 = rng.uniform(-20.0, t + 20.0);
        break;
      case 1:  // both ends on samples: inclusive boundaries
        t0 = any_time();
        t1 = any_time();
        break;
      case 2:  // one sample, alone
        t0 = t1 = any_time();
        break;
      case 3:  // just inside and just outside a sample
        t0 = std::nextafter(any_time(), 0.0);
        t1 = std::nextafter(any_time(), t + 100.0);
        break;
      default:  // a prevention window: a look-back ending at a sample
        t1 = any_time();
        t0 = t1 - rng.uniform(0.0, 120.0);
        break;
    }
    for (std::size_t a = 0; a < kAttributeCount; ++a) {
      const auto attribute = static_cast<Attribute>(a);
      const std::optional<double> want = series[a].mean_between(t0, t1);
      const std::optional<double> got =
          history.mean_between(attribute, t0, t1);
      ASSERT_EQ(got.has_value(), want.has_value()) << t0 << " " << t1;
      if (want) {
        ASSERT_EQ(bits_of(*got), bits_of(*want)) << t0 << " " << t1;
      }
    }
    const auto [first, last] = history.window(t0, t1);
    empty += first == last;
    single += last - first == 1;
  }
  EXPECT_GT(empty, 100u);
  EXPECT_GT(single, 100u);
}

// Each VM keeps its own rows whatever order the VMs are recorded in,
// including orders that defeat the table's next-slot guess.
TEST(MetricStore, VmsRecordedInChangingOrdersKeepTheirRows) {
  const std::vector<std::string> names = {"vm-web", "vm-app1", "vm-app2",
                                          "vm-db", "vm-pe5", "vm-pe6"};
  const auto row_of = [](std::size_t vm, int round) {
    AttributeVector row{};
    for (std::size_t a = 0; a < kAttributeCount; ++a)
      row[a] = static_cast<double>(vm * 1000 + a) + round * 0.5;
    return row;
  };
  Rng rng(5);
  MetricStore store;
  std::vector<std::size_t> order(names.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const int rounds = 40;
  for (int round = 0; round < rounds; ++round) {
    if (round % 4 == 1) std::reverse(order.begin(), order.end());
    if (round % 4 == 3) {
      for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i)))]);
    }
    for (const std::size_t vm : order) {
      store.record(names[vm], round * 5.0, row_of(vm, round));
      // A reader between two records moves the guess too.
      if (round % 3 == 0) {
        EXPECT_NE(store.latest_sample(names[0]), nullptr);
      }
    }
  }
  ASSERT_EQ(store.vm_names().size(), names.size());
  for (std::size_t vm = 0; vm < names.size(); ++vm) {
    const MetricStore::History* history = store.history(names[vm]);
    ASSERT_NE(history, nullptr) << names[vm];
    ASSERT_EQ(history->size(), static_cast<std::size_t>(rounds));
    ASSERT_EQ(history->rows.size(), history->times.size());
    for (int round = 0; round < rounds; ++round) {
      const auto i = static_cast<std::size_t>(round);
      EXPECT_EQ(history->times[i], round * 5.0) << names[vm];
      EXPECT_EQ(history->rows[i], row_of(vm, round)) << names[vm];
    }
  }
}

// A rejected sample throws before anything grows: no VM's times or rows
// change and no name is added.
TEST(MetricStore, RejectedSampleLeavesEveryHistoryUnchanged) {
  MetricStore store;
  AttributeVector v{};
  for (int round = 0; round < 3; ++round) {
    for (const char* vm : {"a", "b", "c"}) {
      set(v, Attribute::kCpuUtil, round + 0.25);
      store.record(vm, round * 5.0, v);
    }
  }
  const auto snapshot = [&store] {
    std::vector<MetricStore::History> all;
    for (const auto& vm : store.vm_names()) all.push_back(*store.history(vm));
    return all;
  };
  const std::vector<MetricStore::History> before = snapshot();
  const std::vector<std::string> names = store.vm_names();
  const auto unchanged = [&] {
    const std::vector<MetricStore::History> after = snapshot();
    if (store.vm_names() != names || after.size() != before.size())
      return false;
    for (std::size_t i = 0; i < after.size(); ++i)
      if (after[i].times != before[i].times || after[i].rows != before[i].rows)
        return false;
    return true;
  };
  AttributeVector nan_row = v;
  set(nan_row, Attribute::kRunQueue, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(store.record("b", 15.0, nan_row), CheckFailure);
  EXPECT_TRUE(unchanged());
  EXPECT_THROW(store.record("d", 15.0, nan_row), CheckFailure);
  EXPECT_TRUE(unchanged());
  // The same time again, and an earlier one.
  EXPECT_THROW(store.record("b", 10.0, v), CheckFailure);
  EXPECT_TRUE(unchanged());
  EXPECT_THROW(store.record("c", 2.5, v), CheckFailure);
  EXPECT_TRUE(unchanged());
  // A later sample of another VM still lands.
  store.record("a", 15.0, v);
  EXPECT_EQ(store.sample_count("a"), 4u);
  EXPECT_EQ(store.sample_count("b"), 3u);
}

// With noise off, a VM's samples depend on its own EWMA and gray-box
// state only, not on where it falls in the sampling order: a monitor
// that walks the VMs in a changing order gives every VM the samples
// that one walking them in a fixed order does. 64 VMs on one monitor
// is how ext_scale shares one across its apps.
TEST_F(VmMonitorTest, SamplesDoNotDependOnTheSamplingOrder) {
  for (const MemorySource source :
       {MemorySource::kInGuestDaemon, MemorySource::kGrayboxInference}) {
    for (const std::size_t count : {std::size_t{7}, std::size_t{64}}) {
      VmMonitorConfig c;
      c.noise = 0.0;
      c.memory_source = source;
      VmMonitor fixed(c, 3);
      VmMonitor shuffled(c, 3);
      std::vector<Vm> vms;
      for (std::size_t i = 0; i < count; ++i)
        vms.emplace_back("vm" + std::to_string(i), 1.0, 512.0);
      std::vector<std::size_t> order(count);
      for (std::size_t i = 0; i < count; ++i) order[i] = i;
      Rng rng(count);
      std::vector<std::vector<AttributeVector>> want(count), got(count);
      for (int round = 0; round < 30; ++round) {
        for (std::size_t i = 0; i < count; ++i) {
          // Demands differ per VM and per round, so the EWMAs differ.
          const double x = static_cast<double>(i) + round;
          vms[i].begin_tick();
          vms[i].set_app_cpu_demand(0.2 + 0.9 * std::fmod(x * 0.37, 1.0));
          vms[i].set_app_mem_demand(300.0 + 260.0 * std::fmod(x * 0.61, 1.0));
          vms[i].set_disk_read(std::fmod(x * 7.3, 40.0));
          vms[i].finalize_tick();
        }
        for (std::size_t i = 0; i < count; ++i)
          want[i].push_back(fixed.sample(vms[i]));
        if (round % 2 == 1) {
          std::reverse(order.begin(), order.end());
        } else {
          for (std::size_t i = count - 1; i > 0; --i)
            std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(i)))]);
        }
        for (const std::size_t i : order)
          got[i].push_back(shuffled.sample(vms[i]));
      }
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(got[i], want[i]) << "VM " << i << " of " << count;
    }
  }
}

}  // namespace
}  // namespace prepare
