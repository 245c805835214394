#include "server/admission.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "device/device_catalog.h"

namespace memstream::server {
namespace {

AdmissionConfig DirectConfig(Bytes dram) {
  auto disk = device::DiskDrive::Create(device::FutureDisk2007());
  EXPECT_TRUE(disk.ok());
  AdmissionConfig config;
  config.dram_budget = dram;
  config.disk_rate = 300 * kMBps;
  config.disk_latency = model::DiskLatencyFn(disk.value());
  return config;
}

AdmissionConfig BufferedConfig(Bytes dram, std::int64_t k) {
  AdmissionConfig config = DirectConfig(dram);
  config.buffer_k = k;
  config.mems = model::MemsProfileMaxLatency(
      device::MemsDevice::Create(device::MemsG3()).value());
  return config;
}

TEST(AdmissionTest, AdmitsUntilDramExhausted) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kMB));
  ASSERT_TRUE(ctrl.ok());
  std::int64_t admitted = 0;
  while (true) {
    auto decision = ctrl.value().TryAdmit(1 * kMBps);
    if (!decision.admitted) {
      EXPECT_EQ(decision.reason, "DRAM budget exceeded");
      break;
    }
    ++admitted;
    ASSERT_LT(admitted, 1000) << "runaway admission";
  }
  EXPECT_GT(admitted, 0);
  EXPECT_EQ(ctrl.value().admitted_count(), admitted);
  EXPECT_LE(ctrl.value().CurrentDramRequirement(), 100 * kMB);
}

TEST(AdmissionTest, BandwidthBoundEnforcedEvenWithHugeDram) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kTB));
  ASSERT_TRUE(ctrl.ok());
  std::int64_t admitted = 0;
  while (ctrl.value().TryAdmit(10 * kMBps).admitted) {
    ++admitted;
    ASSERT_LT(admitted, 100);
  }
  // 300 MB/s / 10 MB/s = 30, strict inequality -> 29.
  EXPECT_EQ(admitted, 29);
}

TEST(AdmissionTest, MemsBufferAdmitsMoreStreams) {
  // With the same small DRAM, the MEMS buffer (Theorem 2 sizing)
  // sustains far more streams — the paper's core value proposition.
  const Bytes dram = 50 * kMB;
  auto direct = AdmissionController::Create(DirectConfig(dram));
  auto buffered = AdmissionController::Create(BufferedConfig(dram, 2));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(buffered.ok());
  auto fill = [](AdmissionController& c) {
    std::int64_t n = 0;
    while (c.TryAdmit(100 * kKBps).admitted) {
      ++n;
      if (n > 100000) break;
    }
    return n;
  };
  const auto n_direct = fill(direct.value());
  const auto n_buffered = fill(buffered.value());
  // Buffered per-stream DRAM is ~2x smaller here (the bank itself
  // eventually saturates, so the advantage is bounded).
  EXPECT_GT(n_buffered, static_cast<std::int64_t>(1.5 * n_direct));
}

TEST(AdmissionTest, ReleaseFreesCapacity) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kMB));
  ASSERT_TRUE(ctrl.ok());
  while (ctrl.value().TryAdmit(1 * kMBps).admitted) {
  }
  const auto full = ctrl.value().admitted_count();
  ASSERT_TRUE(ctrl.value().Release(1 * kMBps).ok());
  EXPECT_EQ(ctrl.value().admitted_count(), full - 1);
  EXPECT_TRUE(ctrl.value().TryAdmit(1 * kMBps).admitted);
}

TEST(AdmissionTest, ReleaseUnknownStreamFails) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kMB));
  ASSERT_TRUE(ctrl.ok());
  EXPECT_EQ(ctrl.value().Release(5 * kMBps).code(), StatusCode::kNotFound);
}

TEST(AdmissionTest, ReleaseUnknownRateChangesNothing) {
  auto ctrl = AdmissionController::Create(DirectConfig(1 * kGB));
  ASSERT_TRUE(ctrl.ok());
  AdmissionController& c = ctrl.value();
  ASSERT_TRUE(c.TryAdmit(1 * kMBps).admitted);
  ASSERT_TRUE(c.TryAdmit(100 * kKBps).admitted);
  ASSERT_TRUE(c.TryAdmit(16 * kKBps).admitted);
  ASSERT_TRUE(c.Release(16 * kKBps).ok());  // drains its class
  const std::int64_t count = c.admitted_count();
  const BytesPerSecond total = c.total_bit_rate();
  const Bytes dram = c.CurrentDramRequirement();
  for (const BytesPerSecond rate : {5 * kMBps, 16 * kKBps, 0.0, -1.0}) {
    EXPECT_EQ(c.Release(rate).code(), StatusCode::kNotFound) << rate;
    EXPECT_EQ(c.admitted_count(), count);
    EXPECT_EQ(c.total_bit_rate(), total);
    EXPECT_EQ(c.CurrentDramRequirement(), dram);
    EXPECT_EQ(c.rate_class_count(), 2u);
  }
}

TEST(AdmissionTest, NonIntegerRatesDrainToExactlyZero) {
  // Rates with no exact binary form: a running += / -= sum would leave
  // rounding residue behind; the per-class counts cannot.
  auto ctrl = AdmissionController::Create(DirectConfig(1 * kGB));
  ASSERT_TRUE(ctrl.ok());
  AdmissionController& c = ctrl.value();
  const BytesPerSecond rates[] = {1 * kMBps / 3, 1 * kMBps / 7,
                                  0.1 * kMBps, 2 * kMBps / 3};
  Rng rng(8);
  std::vector<BytesPerSecond> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.NextInt(0, 2) != 0) {
      const BytesPerSecond r = rates[rng.NextInt(0, 3)];
      if (c.TryAdmit(r).admitted) live.push_back(r);
    } else {
      const auto victim = static_cast<std::size_t>(
          rng.NextInt(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(c.Release(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
  }
  ASSERT_GT(live.size(), 10u);
  for (const BytesPerSecond r : live) ASSERT_TRUE(c.Release(r).ok());
  EXPECT_EQ(c.admitted_count(), 0);
  EXPECT_EQ(c.total_bit_rate(), 0.0);
  EXPECT_FALSE(std::signbit(c.total_bit_rate()));
  EXPECT_EQ(c.CurrentDramRequirement(), 0.0);
  EXPECT_EQ(c.rate_class_count(), 0u);
}

TEST(AdmissionTest, ReleaseScansRateClassesNotStreams) {
  // 8 k streams of one rate form one class, so a Release scans one
  // entry however many streams are held.
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kGB));
  ASSERT_TRUE(ctrl.ok());
  AdmissionController& c = ctrl.value();
  constexpr std::int64_t kHeld = 8192;
  for (std::int64_t i = 0; i < kHeld; ++i) {
    ASSERT_TRUE(c.TryAdmit(16 * kKBps).admitted) << i;
  }
  EXPECT_EQ(c.rate_class_count(), 1u);
  EXPECT_EQ(c.total_bit_rate(), kHeld * 16 * kKBps);
  ASSERT_TRUE(c.Release(16 * kKBps).ok());
  EXPECT_EQ(c.admitted_count(), kHeld - 1);
  EXPECT_EQ(c.rate_class_count(), 1u);
  EXPECT_EQ(c.total_bit_rate(), (kHeld - 1) * 16 * kKBps);
}

TEST(AdmissionTest, RejectionLeavesStateUnchanged) {
  auto ctrl = AdmissionController::Create(DirectConfig(10 * kKB));
  ASSERT_TRUE(ctrl.ok());
  // One 10 MB/s stream needs ~88 KB of buffer, far over a 10 KB budget.
  auto decision = ctrl.value().TryAdmit(10 * kMBps);
  EXPECT_FALSE(decision.admitted);
  EXPECT_EQ(ctrl.value().admitted_count(), 0);
  EXPECT_DOUBLE_EQ(ctrl.value().CurrentDramRequirement(), 0.0);
}

TEST(AdmissionTest, InvalidBitRateRejected) {
  auto ctrl = AdmissionController::Create(DirectConfig(1 * kGB));
  ASSERT_TRUE(ctrl.ok());
  EXPECT_FALSE(ctrl.value().TryAdmit(0).admitted);
  EXPECT_FALSE(ctrl.value().TryAdmit(-5).admitted);
}

// A controller answering from a SizingTable decides exactly like one
// that solves every offer: same verdict, same dram_required bits, same
// reason, from n = 1 up to the first rejection. 1e5 / 3 B/s has no exact
// binary form; 10 MB/s ends at the bandwidth bound, not the budget.
TEST(AdmissionTest, SizingTableMatchesProbeBitForBit) {
  struct Case {
    BytesPerSecond rate;
    Bytes budget;
  };
  const Case cases[] = {{16 * kKBps, 1 * kGB},
                        {100 * kKBps, 1 * kGB},
                        {1e5 / 3, 1 * kGB},
                        {10 * kMBps, 100 * kTB}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rate);
    auto probe = AdmissionController::Create(DirectConfig(c.budget));
    auto tabled = AdmissionController::Create(DirectConfig(c.budget));
    auto quiet = AdmissionController::Create(DirectConfig(c.budget));
    ASSERT_TRUE(probe.ok() && tabled.ok() && quiet.ok());
    auto table = tabled.value().BuildSizingTable(c.rate, 1 << 20);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    tabled.value().UseSizingTable(&table.value());
    quiet.value().UseSizingTable(&table.value());
    std::int64_t n = 0;
    while (true) {
      ++n;
      ASSERT_LE(n, table.value().max_count());
      const AdmissionDecision want = probe.value().TryAdmit(c.rate);
      const AdmissionDecision got = tabled.value().TryAdmit(c.rate);
      std::string reason;
      const AdmissionVerdict lean = quiet.value().Admit(c.rate, &reason);
      EXPECT_EQ(got.admitted, want.admitted) << "n=" << n;
      EXPECT_EQ(got.streams_after, want.streams_after) << "n=" << n;
      EXPECT_EQ(model::DoubleBits(got.dram_required),
                model::DoubleBits(want.dram_required))
          << "n=" << n;
      EXPECT_EQ(got.reason, want.reason) << "n=" << n;
      EXPECT_EQ(lean.admitted, want.admitted) << "n=" << n;
      EXPECT_EQ(lean.streams_after, want.streams_after) << "n=" << n;
      EXPECT_EQ(model::DoubleBits(lean.dram_required),
                model::DoubleBits(want.dram_required))
          << "n=" << n;
      EXPECT_EQ(reason, want.reason) << "n=" << n;
      if (!want.admitted) break;
    }
    // The table ends at the first rejected count, with its reason.
    EXPECT_EQ(table.value().max_count(), n);
    EXPECT_FALSE(table.value().reason().empty());
    EXPECT_GT(n, 1);
  }
}

TEST(AdmissionTest, SizingTableEndsAtBandwidthBoundWithSolverReason) {
  auto ctrl = AdmissionController::Create(DirectConfig(100 * kTB));
  ASSERT_TRUE(ctrl.ok());
  auto table = ctrl.value().BuildSizingTable(10 * kMBps, 1000);
  ASSERT_TRUE(table.ok());
  // 300 MB/s / 10 MB/s = 30 fails the strict bandwidth inequality.
  EXPECT_EQ(table.value().max_count(), 30);
  EXPECT_TRUE(std::isinf(table.value().dram(30)));
  EXPECT_NE(table.value().reason(), "DRAM budget exceeded");
}

TEST(AdmissionTest, SizingTableCapFallsBackToTheSolve) {
  // A table capped at 5 answers counts 1..5; the 6th offer and any
  // other rate are solved, with the same results as without a table.
  auto probe = AdmissionController::Create(DirectConfig(1 * kGB));
  auto tabled = AdmissionController::Create(DirectConfig(1 * kGB));
  ASSERT_TRUE(probe.ok() && tabled.ok());
  auto table = tabled.value().BuildSizingTable(1 * kMBps, 5);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().max_count(), 5);
  EXPECT_TRUE(table.value().reason().empty());
  tabled.value().UseSizingTable(&table.value());
  for (int i = 0; i < 12; ++i) {
    const BytesPerSecond rate = i == 8 ? 16 * kKBps : 1 * kMBps;
    const AdmissionDecision want = probe.value().TryAdmit(rate);
    const AdmissionDecision got = tabled.value().TryAdmit(rate);
    EXPECT_EQ(got.admitted, want.admitted) << i;
    EXPECT_EQ(model::DoubleBits(got.dram_required),
              model::DoubleBits(want.dram_required))
        << i;
  }
}

TEST(AdmissionTest, SizingTableValidatesItsInputs) {
  auto direct = AdmissionController::Create(DirectConfig(1 * kGB));
  auto buffered = AdmissionController::Create(BufferedConfig(1 * kGB, 2));
  ASSERT_TRUE(direct.ok() && buffered.ok());
  EXPECT_FALSE(buffered.value().BuildSizingTable(1 * kMBps, 10).ok());
  EXPECT_FALSE(direct.value().BuildSizingTable(0, 10).ok());
  EXPECT_FALSE(direct.value().BuildSizingTable(1 * kMBps, 0).ok());
}

TEST(AdmissionTest, CreateValidatesConfig) {
  AdmissionConfig config;  // no latency function
  config.dram_budget = 1 * kGB;
  EXPECT_FALSE(AdmissionController::Create(config).ok());
  AdmissionConfig bad_buffer = DirectConfig(1 * kGB);
  bad_buffer.buffer_k = 2;  // but no mems profile
  EXPECT_FALSE(AdmissionController::Create(bad_buffer).ok());
}

}  // namespace
}  // namespace memstream::server
