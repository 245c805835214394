#include "server/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

namespace memstream::server {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// TryAdmit's text for a load of `dram` over the budget; `solver` holds
/// the solver's reason when the load is infeasible.
std::string OverBudgetReason(Bytes dram, std::string& solver) {
  return dram == kInf ? std::move(solver) : "DRAM budget exceeded";
}

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

[[gnu::always_inline]] inline Bytes AdmissionController::SizeWith(
    BytesPerSecond bit_rate, std::string* reason) const {
  const std::int64_t n = admitted_count_ + 1;
  // A table entry is the solve below for a set of n streams of its
  // rate: SumRates leaves total_rate_ at exactly rate * (n - 1) then.
  if (table_ != nullptr && bit_rate == table_->rate_ &&
      n <= table_->max_count() &&
      (classes_.empty() ||
       (classes_.size() == 1 && classes_.front().rate == bit_rate))) {
    const Bytes dram = table_->dram(n);
    if (reason != nullptr && dram > config_.dram_budget) {
      *reason = table_->reason_;
    }
    return dram;
  }
  DramSolve solve =
      Solve(n, (total_rate_ + bit_rate) / static_cast<double>(n));
  if (reason != nullptr && solve.dram > config_.dram_budget) {
    *reason = OverBudgetReason(solve.dram, solve.reason);
  }
  return solve.dram;
}

// SizeWith and Decide are inlined into both Admit and TryAdmit: calls
// between them cost the memo-hit admission path a measurable share of
// its ~20 ns.
[[gnu::always_inline]] inline AdmissionVerdict AdmissionController::Decide(
    BytesPerSecond bit_rate, std::string* reason) {
  AdmissionVerdict verdict;
  verdict.streams_after = admitted_count_;
  if (bit_rate <= 0) {
    if (reason != nullptr) *reason = "bit_rate must be > 0";
  } else {
    verdict.dram_required = SizeWith(bit_rate, reason);
    if (verdict.dram_required <= config_.dram_budget) {
      auto it = FindClass(bit_rate);
      if (it == classes_.end()) {
        classes_.push_back({bit_rate, 1});
      } else {
        ++it->count;
      }
      ++admitted_count_;
      SumRates();
      verdict.admitted = true;
      verdict.streams_after = admitted_count_;
    }
  }
  obs::Increment(attempts_metric_);
  obs::Increment(verdict.admitted ? admitted_metric_ : rejected_metric_);
  return verdict;
}

AdmissionVerdict AdmissionController::Admit(BytesPerSecond bit_rate,
                                            std::string* reason) {
  return Decide(bit_rate, reason);
}

AdmissionDecision AdmissionController::TryAdmit(BytesPerSecond bit_rate) {
  // The wall clock runs only when a latency consumer is installed, so
  // untelemetered admission stays clock-free (and deterministic tests
  // see no syscalls).
  const bool timed = slo_latency_ != nullptr || latency_hist_ != nullptr;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};

  AdmissionDecision decision;
  const AdmissionVerdict verdict = Decide(bit_rate, &decision.reason);
  decision.admitted = verdict.admitted;
  decision.streams_after = verdict.streams_after;
  decision.dram_required = verdict.dram_required;

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

Result<SizingTable> AdmissionController::BuildSizingTable(
    BytesPerSecond rate, std::int64_t max_count) const {
  if (config_.buffer_k != 0) {
    return Status::InvalidArgument("a sizing table needs buffer_k == 0");
  }
  if (rate <= 0) return Status::InvalidArgument("rate must be > 0");
  if (max_count < 1) return Status::InvalidArgument("max_count must be >= 1");
  SizingTable table;
  table.rate_ = rate;
  table.dram_.push_back(0);
  for (std::int64_t n = 1; n <= max_count; ++n) {
    // TryAdmit's average with n - 1 streams of `rate` held.
    const BytesPerSecond held = rate * static_cast<double>(n - 1);
    DramSolve solve = DramFor(n, (held + rate) / static_cast<double>(n));
    table.dram_.push_back(solve.dram);
    if (solve.dram > config_.dram_budget) {
      table.reason_ = OverBudgetReason(solve.dram, solve.reason);
      break;
    }
  }
  return table;
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
