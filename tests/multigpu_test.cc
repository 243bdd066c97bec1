#include "convgpu/multigpu.h"

#include <gtest/gtest.h>

namespace convgpu {
namespace {

using namespace convgpu::literals;

SchedulerOptions Base() {
  SchedulerOptions options;
  options.policy = "FIFO";
  return options;
}

std::vector<MultiGpuScheduler::DeviceSpec> TwoDevices() {
  return {{0, 5_GiB}, {1, 12_GiB}};
}

TEST(MultiGpuTest, MostFreeBalancesLoad) {
  MultiGpuScheduler scheduler(TwoDevices(), Base(), PlacementPolicy::kMostFree);
  // First container goes to the 12 GiB device (most free).
  auto a = scheduler.RegisterContainer("a", 4_GiB);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 1);
  // Next: device 1 has 8 GiB free, still more than device 0's 5 GiB.
  auto b = scheduler.RegisterContainer("b", 4_GiB);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 1);
  // Now device 0 (5 GiB) has more free than device 1 (~4 GiB).
  auto c = scheduler.RegisterContainer("c", 1_GiB);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 0);
}

TEST(MultiGpuTest, BestFitPacksTightly) {
  MultiGpuScheduler scheduler(TwoDevices(), Base(), PlacementPolicy::kBestFit);
  // 4 GiB fits both; the 5 GiB device is the tighter fit.
  auto a = scheduler.RegisterContainer("a", 4_GiB);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 0);
  // 8 GiB only fits device 1.
  auto b = scheduler.RegisterContainer("b", 8_GiB);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 1);
}

TEST(MultiGpuTest, RoundRobinRotatesButSkipsIncapableDevices) {
  MultiGpuScheduler scheduler(TwoDevices(), Base(),
                              PlacementPolicy::kRoundRobin);
  EXPECT_EQ(*scheduler.RegisterContainer("a", 1_GiB), 0);
  EXPECT_EQ(*scheduler.RegisterContainer("b", 1_GiB), 1);
  EXPECT_EQ(*scheduler.RegisterContainer("c", 1_GiB), 0);
  // 8 GiB never fits device 0's capacity: lands on device 1 regardless of
  // whose turn it is.
  EXPECT_EQ(*scheduler.RegisterContainer("big", 8_GiB), 1);
}

TEST(MultiGpuTest, ImpossibleEverywhereRefused) {
  MultiGpuScheduler scheduler(TwoDevices(), Base(), PlacementPolicy::kMostFree);
  auto result = scheduler.RegisterContainer("huge", 64_GiB);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MultiGpuTest, RoutingFollowsPlacement) {
  MultiGpuScheduler scheduler(TwoDevices(), Base(), PlacementPolicy::kBestFit);
  ASSERT_TRUE(scheduler.RegisterContainer("a", 1_GiB).ok());
  bool granted = false;
  scheduler.RequestAlloc("a", 1, 512_MiB,
                         [&granted](const Status& s) { granted = s.ok(); });
  ASSERT_TRUE(granted);
  ASSERT_TRUE(scheduler.CommitAlloc("a", 1, 0x1, 512_MiB).ok());

  const int device = *scheduler.DeviceOf("a");
  EXPECT_GT(scheduler.device_core(device).StatsFor("a")->used, 512_MiB);
  auto info = scheduler.MemGetInfo("a");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->total, 1_GiB);

  ASSERT_TRUE(scheduler.FreeAlloc("a", 1, 0x1).ok());
  ASSERT_TRUE(scheduler.ProcessExit("a", 1).ok());
  ASSERT_TRUE(scheduler.ContainerClose("a").ok());
  EXPECT_FALSE(scheduler.DeviceOf("a").ok());
  EXPECT_TRUE(scheduler.CheckInvariants().ok());
}

TEST(MultiGpuTest, SuspensionIsPerDevice) {
  MultiGpuScheduler scheduler(TwoDevices(), Base(), PlacementPolicy::kBestFit);
  // Fill device 0 with a 4 GiB hog.
  ASSERT_TRUE(scheduler.RegisterContainer("hog", 4_GiB).ok());
  bool hog_granted = false;
  scheduler.RequestAlloc("hog", 1, 4_GiB,
                         [&](const Status& s) { hog_granted = s.ok(); });
  ASSERT_TRUE(hog_granted);
  ASSERT_TRUE(scheduler.CommitAlloc("hog", 1, 0xB, 4_GiB).ok());

  // A second 4 GiB container best-fits onto... device 0's pool is nearly
  // empty, so it lands on device 1 and does NOT suspend.
  ASSERT_TRUE(scheduler.RegisterContainer("second", 4_GiB).ok());
  EXPECT_EQ(*scheduler.DeviceOf("second"), 1);
  bool second_granted = false;
  scheduler.RequestAlloc("second", 2, 4_GiB,
                         [&](const Status& s) { second_granted = s.ok(); });
  EXPECT_TRUE(second_granted);
}

TEST(MultiGpuTest, UnknownContainerRouting) {
  MultiGpuScheduler scheduler(TwoDevices(), Base(), PlacementPolicy::kMostFree);
  EXPECT_FALSE(scheduler.ContainerClose("ghost").ok());
  EXPECT_FALSE(scheduler.MemGetInfo("ghost").ok());
  bool called = false;
  Status seen;
  scheduler.RequestAlloc("ghost", 1, 1_MiB, [&](const Status& s) {
    called = true;
    seen = s;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(seen.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace convgpu
