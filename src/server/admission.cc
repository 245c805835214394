#include "server/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace memstream::server {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<AdmissionController> AdmissionController::Create(
    AdmissionConfig config) {
  if (!config.disk_latency) {
    return Status::InvalidArgument("disk_latency function is required");
  }
  if (config.dram_budget <= 0) {
    return Status::InvalidArgument("dram_budget must be > 0");
  }
  if (config.buffer_k < 0) {
    return Status::InvalidArgument("buffer_k must be >= 0");
  }
  if (config.buffer_k > 0 && config.mems.rate <= 0) {
    return Status::InvalidArgument("mems profile required when buffer_k > 0");
  }
  return AdmissionController(std::move(config));
}

AdmissionController::DramSolve AdmissionController::DramFor(
    std::int64_t n, BytesPerSecond avg) const {
  DramSolve solve;
  if (n == 0) return solve;
  model::DeviceProfile disk;
  disk.rate = config_.disk_rate;
  disk.latency = config_.disk_latency(n);

  if (config_.buffer_k > 0 && n >= 2) {
    model::MemsBufferParams params;
    params.k = config_.buffer_k;
    params.disk = disk;
    params.mems = config_.mems;
    auto sized = model::SolveMemsBuffer(n, avg, params);
    if (sized.ok()) {
      solve.dram = sized.value().dram_total;
    } else {
      solve.dram = kInf;
      solve.reason = sized.status().ToString();
    }
    return solve;
  }

  // The probe kernel is TotalBufferSize term for term without building
  // a Result; only an infeasible load pays for the full solve's reason.
  solve.dram = model::ProbeTheorem1Total(n, avg, disk.rate, disk.latency);
  if (std::isnan(solve.dram)) {
    solve.dram = kInf;
    solve.reason = model::TotalBufferSize(n, avg, disk).status().ToString();
  }
  return solve;
}

AdmissionController::DramSolve AdmissionController::Solve(
    std::int64_t n, BytesPerSecond avg) const {
  if (config_.buffer_k == 0) return DramFor(n, avg);
  const model::SolveKey key{n, model::DoubleBits(avg), 0};
  return memo_.Lookup(
      key, [&] { return DramFor(n, avg); },
      [](const DramSolve& a, const DramSolve& b) {
        return model::DoubleBits(a.dram) == model::DoubleBits(b.dram) &&
               a.reason == b.reason;
      });
}

std::vector<AdmissionController::RateClass>::iterator
AdmissionController::FindClass(BytesPerSecond rate) {
  return std::find_if(classes_.begin(), classes_.end(),
                      [rate](const RateClass& c) { return c.rate == rate; });
}

void AdmissionController::SumRates() {
  total_rate_ = 0;
  for (const RateClass& c : classes_) {
    total_rate_ += c.rate * static_cast<double>(c.count);
  }
}

AdmissionDecision AdmissionController::TryAdmit(BytesPerSecond bit_rate) {
  // The wall clock runs only when a latency consumer is installed, so
  // untelemetered admission stays clock-free (and deterministic tests
  // see no syscalls).
  const bool timed = slo_latency_ != nullptr || latency_hist_ != nullptr;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};

  AdmissionDecision decision;
  decision.streams_after = admitted_count() + 1;
  if (bit_rate <= 0) {
    decision.reason = "bit_rate must be > 0";
  } else {
    const BytesPerSecond avg =
        (total_rate_ + bit_rate) /
        static_cast<double>(decision.streams_after);
    DramSolve solve = Solve(decision.streams_after, avg);
    decision.dram_required = solve.dram;
    if (solve.dram > config_.dram_budget) {
      decision.reason = solve.dram == kInf ? std::move(solve.reason)
                                           : "DRAM budget exceeded";
    } else {
      auto it = FindClass(bit_rate);
      if (it == classes_.end()) {
        classes_.push_back({bit_rate, 1});
      } else {
        ++it->count;
      }
      ++admitted_count_;
      SumRates();
      decision.admitted = true;
    }
  }
  if (!decision.admitted) decision.streams_after = admitted_count();

  obs::Increment(attempts_metric_);
  obs::Increment(decision.admitted ? admitted_metric_ : rejected_metric_);
  if (timed) {
    const auto end = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(end - start).count();
    obs::Observe(latency_hist_, elapsed * 1e6);
    if (slo_latency_ != nullptr) {
      const double now =
          std::chrono::duration<double>(end.time_since_epoch()).count();
      const bool good = elapsed <= slo_latency_->spec().threshold;
      slo_latency_->Record(now, good ? 1 : 0, good ? 0 : 1);
    }
  }
  return decision;
}

Status AdmissionController::Release(BytesPerSecond bit_rate) {
  auto it = FindClass(bit_rate);
  if (it == classes_.end()) {
    return Status::NotFound("no admitted stream with that bit_rate");
  }
  if (--it->count == 0) classes_.erase(it);
  --admitted_count_;
  SumRates();
  return Status::OK();
}

Bytes AdmissionController::CurrentDramRequirement() const {
  if (admitted_count_ == 0) return 0;
  return Solve(admitted_count_,
               total_rate_ / static_cast<double>(admitted_count_))
      .dram;
}

}  // namespace memstream::server
