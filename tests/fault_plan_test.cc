#include "fault/fault_plan.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace memstream::fault {
namespace {

TEST(FaultPlanTest, FromScriptSortsByTimeStably) {
  std::vector<FaultEvent> events;
  events.push_back({5, FaultKind::kMemsDeviceRepair, 0, 4});
  events.push_back({1, FaultKind::kMemsDeviceFail, 0, 0});
  events.push_back({5, FaultKind::kMemsDeviceFail, 1, 0});
  auto plan = FaultPlan::FromScript(std::move(events));
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kMemsDeviceFail);
  // Equal times keep script order.
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kMemsDeviceRepair);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kMemsDeviceFail);
  EXPECT_EQ(plan.events()[2].device, 1);
}

TEST(FaultPlanTest, GenerateIsDeterministicPerSeed) {
  FaultPlanConfig config;
  config.horizon = 100;
  config.num_devices = 4;
  config.device_fail_rate = 0.05;

  auto a = FaultPlan::Generate(config, 7);
  auto b = FaultPlan::Generate(config, 7);
  auto c = FaultPlan::Generate(config, 8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value().events()[i].time, b.value().events()[i].time);
    EXPECT_EQ(a.value().events()[i].kind, b.value().events()[i].kind);
    EXPECT_EQ(a.value().events()[i].device, b.value().events()[i].device);
  }
  // Another seed draws other failure times.
  auto times = [](const FaultPlan& plan) {
    std::vector<Seconds> out;
    for (const FaultEvent& e : plan.events()) out.push_back(e.time);
    return out;
  };
  EXPECT_NE(times(a.value()), times(c.value()));
}

TEST(FaultPlanTest, GenerateEmitsPairedRepairs) {
  FaultPlanConfig config;
  config.horizon = 200;
  config.num_devices = 2;
  config.device_fail_rate = 0.05;
  config.repair_after = 10;
  auto plan = FaultPlan::Generate(config, 11);
  ASSERT_TRUE(plan.ok());
  std::int64_t fails = 0;
  std::int64_t repairs = 0;
  for (const auto& e : plan.value().events()) {
    if (e.kind == FaultKind::kMemsDeviceFail) ++fails;
    if (e.kind == FaultKind::kMemsDeviceRepair) {
      ++repairs;
      EXPECT_EQ(e.duration, config.repair_after);
    }
  }
  EXPECT_GT(fails, 0);
  EXPECT_EQ(fails, repairs);  // every outage ends, even past the horizon
}

TEST(FaultPlanTest, OverlappingFailuresOfOneDeviceAreDropped) {
  FaultPlanConfig config;
  config.horizon = 100;
  config.num_devices = 1;
  config.device_fail_rate = 1.0;  // many arrivals, one device
  config.repair_after = 10;
  auto plan = FaultPlan::Generate(config, 3);
  ASSERT_TRUE(plan.ok());
  bool down = false;
  for (const auto& e : plan.value().events()) {
    if (e.kind == FaultKind::kMemsDeviceFail) {
      EXPECT_FALSE(down) << "device failed while already down";
      down = true;
    } else if (e.kind == FaultKind::kMemsDeviceRepair) {
      EXPECT_TRUE(down);
      down = false;
    }
  }
}

TEST(FaultPlanTest, EventsAreTimeSortedAndInsideHorizonExceptRepairs) {
  FaultPlanConfig config;
  config.horizon = 50;
  config.num_devices = 3;
  config.device_fail_rate = 0.1;
  auto plan = FaultPlan::Generate(config, 19);
  ASSERT_TRUE(plan.ok());
  Seconds last = 0;
  for (const auto& e : plan.value().events()) {
    EXPECT_GE(e.time, last);
    last = e.time;
    if (e.kind != FaultKind::kMemsDeviceRepair) {
      EXPECT_LT(e.time, config.horizon);
    }
  }
}

TEST(FaultPlanTest, GenerateRejectsBadConfig) {
  FaultPlanConfig config;
  config.horizon = 0;
  EXPECT_FALSE(FaultPlan::Generate(config, 1).ok());
  config.horizon = 10;
  config.num_devices = 0;
  EXPECT_FALSE(FaultPlan::Generate(config, 1).ok());
  config.num_devices = 1;
  config.repair_after = 0;
  EXPECT_FALSE(FaultPlan::Generate(config, 1).ok());
}

}  // namespace
}  // namespace memstream::fault
