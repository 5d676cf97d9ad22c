#include "core/resilient.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace ibfs {
namespace {

std::span<const double> BackoffBoundsMs() {
  static const std::vector<double> bounds = obs::PowerOfTwoBounds(0.125, 12);
  return bounds;
}

}  // namespace

void RunAttempts(const EngineOptions& options, std::span<const int> device_ids,
                 uint64_t salt, const obs::Observer& observer,
                 const AttemptBody& body, ResilientOutcome* outcome) {
  const bool faulty = options.faults.enabled();
  const int max_attempts = faulty ? options.retry.max_attempts : 1;
  const size_t k = device_ids.size();
  obs::MetricsRegistry* metrics =
      observer.metering() ? observer.metrics : nullptr;

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      const double backoff_ms = options.retry.BackoffMs(salt, attempt);
      if (metrics != nullptr) {
        metrics->GetCounter("retry.attempts")->Increment();
        metrics->GetHistogram("retry.backoff_ms", BackoffBoundsMs())
            ->Observe(backoff_ms);
      }
      if (backoff_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      }
    }
    ++outcome->attempts;

    // Reserved up front: each device keeps a pointer to its injector.
    std::vector<gpusim::Device> devices;
    std::vector<gpusim::FaultInjector> injectors;
    devices.reserve(k);
    injectors.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      devices.emplace_back(options.device);
      injectors.emplace_back(options.faults, device_ids[i],
                             salt * 131ULL + static_cast<uint64_t>(attempt));
      if (faulty) devices.back().SetFaultInjector(&injectors.back());
    }

    Result<GroupResult> executed = body(devices);
    Status attempt_status = executed.status();
    size_t culprit = 0;
    for (size_t i = 0; i < k && attempt_status.ok(); ++i) {
      attempt_status = devices[i].fault_status();
      culprit = i;
    }

    if (attempt_status.ok()) {
      // Transfer integrity: the checksum computed "on the devices" (before
      // the simulated copy back) must match the payload the host received.
      // An injected transfer corruption flips depth words in between, the
      // checksums disagree, and the attempt is quarantined and re-run.
      std::vector<std::vector<uint8_t>>& depths = executed.value().depths;
      if (faulty && !depths.empty()) {
        const uint64_t device_checksum = Fnv1aOfDepths(depths);
        size_t corrupter = k;
        for (size_t i = 0; i < k; ++i) {
          if (injectors[i].ShouldCorruptTransfer()) {
            injectors[i].CorruptDepths(&depths);
            corrupter = std::min(corrupter, i);
          }
        }
        if (Fnv1aOfDepths(depths) != device_checksum) {
          culprit = corrupter;
          attempt_status = Status::DataLoss(
              "depth payload checksum mismatch on device " +
              std::to_string(device_ids[culprit]) +
              " (injected transfer corruption)");
          ++outcome->corruptions_detected;
          if (metrics != nullptr) {
            metrics->GetCounter("fault.corruptions_detected")->Increment();
          }
        }
      }
    } else if (attempt_status.code() == StatusCode::kUnavailable) {
      ++outcome->transient_faults;
    }

    if (attempt_status.ok()) {
      outcome->status = Status::OK();
      outcome->result = std::move(executed).value();
      for (const gpusim::Device& device : devices) {
        outcome->sim_seconds += device.elapsed_seconds();
        outcome->totals.Add(device.totals());
        for (const auto& [phase, stats] : device.phases()) {
          outcome->phases[phase].Add(stats);
        }
      }
      return;
    }

    outcome->status = std::move(attempt_status);
    for (const gpusim::Device& device : devices) {
      outcome->wasted_sim_seconds += device.elapsed_seconds();
    }
    if (metrics != nullptr) {
      metrics->GetCounter("fault.failed_attempts")->Increment();
    }
    if (observer.tracing()) {
      std::vector<obs::TraceArg> instant_args = {
          obs::Arg("device", static_cast<int64_t>(device_ids[culprit])),
          obs::Arg("attempt", static_cast<int64_t>(attempt)),
          obs::Arg("status", outcome->status.ToString())};
      if (!observer.context.empty()) {
        instant_args.push_back(obs::Arg("ctx", observer.context));
      }
      observer.tracer->Instant(observer.track, "attempt_failed", 0.0,
                               std::move(instant_args));
    }
  }
  if (metrics != nullptr) {
    metrics->GetCounter("retry.exhausted")->Increment();
  }
}

ResilientOutcome ExecuteGroupResilient(const Engine& engine,
                                       std::span<const graph::VertexId> group,
                                       int device_id, uint64_t salt,
                                       const obs::Observer& observer) {
  ResilientOutcome outcome;
  const int device_ids[] = {device_id};
  RunAttempts(
      engine.options(), device_ids, salt, observer,
      [&](std::span<gpusim::Device> devices) {
        return engine.ExecuteGroup(group, devices.data(), observer);
      },
      &outcome);
  return outcome;
}

DeviceRouter::DeviceRouter(int device_count, int failure_threshold)
    : consecutive_failures_(static_cast<size_t>(std::max(1, device_count)),
                            0),
      open_(static_cast<size_t>(std::max(1, device_count)), false),
      failure_threshold_(std::max(1, failure_threshold)) {}

int DeviceRouter::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t probe = 0; probe < open_.size(); ++probe) {
    const size_t id = (next_ + probe) % open_.size();
    if (!open_[id]) {
      next_ = id + 1;
      return static_cast<int>(id);
    }
  }
  return kNoDevice;
}

bool DeviceRouter::ReportFailure(int device_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (device_id < 0 || static_cast<size_t>(device_id) >= open_.size()) {
    return false;
  }
  const auto id = static_cast<size_t>(device_id);
  if (open_[id]) return false;
  if (++consecutive_failures_[id] >= failure_threshold_) {
    open_[id] = true;
    ++opened_total_;
    return true;
  }
  return false;
}

void DeviceRouter::ReportSuccess(int device_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (device_id < 0 || static_cast<size_t>(device_id) >= open_.size()) {
    return;
  }
  consecutive_failures_[static_cast<size_t>(device_id)] = 0;
}

bool DeviceRouter::IsOpen(int device_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (device_id < 0 || static_cast<size_t>(device_id) >= open_.size()) {
    return false;
  }
  return open_[static_cast<size_t>(device_id)];
}

int DeviceRouter::healthy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int healthy = 0;
  for (const bool open : open_) {
    if (!open) ++healthy;
  }
  return healthy;
}

int64_t DeviceRouter::opened_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opened_total_;
}

}  // namespace ibfs
