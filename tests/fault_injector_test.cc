#include "fault/fault_injector.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace memstream::fault {
namespace {

TEST(FaultInjectorTest, ScheduledEventsFeedTimelineAndMetrics) {
  std::vector<FaultEvent> events;
  events.push_back({1, FaultKind::kMemsDeviceFail, 0, 0});
  events.push_back({5, FaultKind::kMemsDeviceRepair, 0, 4});

  obs::MetricsRegistry metrics;
  sim::TraceLog trace;
  FaultInjectorConfig config;
  config.metrics = &metrics;
  config.trace = &trace;
  FaultInjector injector(FaultPlan::FromScript(std::move(events)), config);

  sim::Simulator sim;
  std::vector<FaultKind> seen;
  ASSERT_TRUE(injector
                  .ScheduleIn(sim, [&seen](const FaultEvent& e) {
                    seen.push_back(e.kind);
                  })
                  .ok());
  ASSERT_TRUE(sim.Run(10).ok());
  injector.Finalize(10);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], FaultKind::kMemsDeviceFail);
  EXPECT_EQ(seen[1], FaultKind::kMemsDeviceRepair);

  const obs::FaultsBlock& block = injector.block();
  EXPECT_EQ(block.events, 1);
  EXPECT_EQ(block.repairs, 1);
  ASSERT_EQ(block.timeline.size(), 2u);
  EXPECT_EQ(block.timeline[0].time, 1.0);
  EXPECT_EQ(block.timeline[1].action, "cleared");
  EXPECT_EQ(metrics.counter("fault.events")->value(), 1);
  EXPECT_EQ(metrics.counter("fault.repairs")->value(), 1);
  EXPECT_EQ(trace.Count(sim::TraceKind::kFaultStart), 1);
  EXPECT_EQ(trace.Count(sim::TraceKind::kFaultEnd), 1);
}

TEST(FaultInjectorTest, ShedLedgerTracksReadmissionAndShedTime) {
  FaultInjector injector(FaultPlan(), {});
  injector.RecordShed(7, 10.0, 3);
  injector.RecordShed(9, 10.0, 3);
  injector.RecordReadmit(7, 16.0);
  injector.Finalize(30.0);

  const obs::FaultsBlock& block = injector.block();
  EXPECT_EQ(block.sheds, 2);
  EXPECT_EQ(block.readmits, 1);
  ASSERT_EQ(block.shed_streams.size(), 2u);
  EXPECT_EQ(block.shed_streams[0].readmit_time, 16.0);
  EXPECT_EQ(block.shed_streams[1].readmit_time, -1.0);
  // 6s for stream 7 + (30 - 10)s for the never-readmitted stream 9.
  EXPECT_DOUBLE_EQ(block.total_shed_time, 6.0 + 20.0);
}

TEST(FaultInjectorTest, ReplanAnnotatesCausingTimelineEntry) {
  std::vector<FaultEvent> events;
  events.push_back({3, FaultKind::kMemsDeviceFail, 1, 0});
  events.push_back({4, FaultKind::kMemsDeviceRepair, 1, 1});
  FaultInjector injector(FaultPlan::FromScript(std::move(events)), {});
  sim::Simulator sim;
  ASSERT_TRUE(injector.ScheduleIn(sim, nullptr).ok());
  ASSERT_TRUE(sim.Run(5).ok());
  injector.RecordReplan({3, FaultKind::kMemsDeviceFail, 1, 0}, 3.0,
                        "reshape T_mems=0.5s");
  ASSERT_EQ(injector.block().timeline.size(), 2u);
  EXPECT_EQ(injector.block().timeline[0].action, "reshape T_mems=0.5s");
  // The annotation lands on the fail entry, not on the later repair.
  EXPECT_EQ(injector.block().timeline[1].action, "cleared");
  EXPECT_EQ(injector.block().replans, 1);
}

TEST(FaultInjectorTest, WarnsWhenTraceDropsRecordsDuringBurst) {
  std::vector<FaultEvent> events;
  // One device outage over [1, 9) is the burst.
  events.push_back({1, FaultKind::kMemsDeviceFail, 0, 0});
  events.push_back({9, FaultKind::kMemsDeviceRepair, 0, 8});
  sim::TraceLog trace(4);  // tiny ring: drops are guaranteed
  std::ostringstream warnings;
  FaultInjectorConfig config;
  config.trace = &trace;
  config.warn_stream = &warnings;
  FaultInjector injector(FaultPlan::FromScript(std::move(events)), config);

  sim::Simulator sim;
  ASSERT_TRUE(injector.ScheduleIn(sim, nullptr).ok());
  // Traffic during the burst overflows the ring.
  ASSERT_TRUE(sim.ScheduleAt(2.0, [&trace]() {
                   for (int i = 0; i < 10; ++i) {
                     trace.Append({2.0 + i * 0.1, sim::TraceKind::kNote,
                                   "disk", i, 0, "io"});
                   }
                 }).ok());
  ASSERT_TRUE(sim.Run(20).ok());
  injector.Finalize(20);

  EXPECT_GT(injector.block().dropped_during_burst, 0);
  const std::string text = warnings.str();
  EXPECT_NE(text.find("trace.dropped_records="), std::string::npos);
  EXPECT_NE(text.find("dropped_during_burst="), std::string::npos);
}

TEST(FaultInjectorTest, NoWarningWhenDropsHappenOutsideBursts) {
  sim::TraceLog trace(2);
  std::ostringstream warnings;
  FaultInjectorConfig config;
  config.trace = &trace;
  config.warn_stream = &warnings;
  FaultInjector injector(FaultPlan(), config);
  for (int i = 0; i < 10; ++i) {
    trace.Append({i * 1.0, sim::TraceKind::kNote, "disk", i, 0, "io"});
  }
  injector.Finalize(10);
  EXPECT_EQ(injector.block().dropped_during_burst, 0);
  EXPECT_TRUE(warnings.str().empty());
  EXPECT_GT(trace.dropped_records(), 0);
}

}  // namespace
}  // namespace memstream::fault
