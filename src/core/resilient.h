#ifndef IBFS_CORE_RESILIENT_H_
#define IBFS_CORE_RESILIENT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/engine.h"
#include "gpusim/fault.h"
#include "util/status.h"

namespace ibfs {

/// The one attempt loop over the fault-injectable device simulator, with
/// three consumers: Engine::Run and BfsService (k = 1 device per attempt,
/// through ExecuteGroupResilient) and RunPartitioned (k = P). See
/// docs/RESILIENCE.md.

/// What the attempt loop did. `status` and `result` describe the latest
/// call (`result` is the payload when `status` is OK). Every other field
/// accumulates across calls, so one outcome can be the ledger of many units.
struct ResilientOutcome {
  Status status;
  GroupResult result;
  /// Simulated seconds / counters of *successful* attempts only, summed
  /// over their devices in device order, so fault-free timing is unchanged
  /// by the retry machinery.
  double sim_seconds = 0.0;
  gpusim::KernelStats totals;
  gpusim::PhaseMap phases;
  /// Simulated seconds burned by failed attempts (retry waste).
  double wasted_sim_seconds = 0.0;
  int attempts = 0;
  /// Injected launch failures observed (transient or permanent).
  int transient_faults = 0;
  /// Transfer corruptions caught by the checksum.
  int corruptions_detected = 0;
};

/// One attempt's work on its fresh devices. The loop reads device faults
/// afterwards and checksums the returned payload's depths.
using AttemptBody =
    std::function<Result<GroupResult>(std::span<gpusim::Device> devices)>;

/// Runs `body` up to options.retry.max_attempts times, each on one fresh
/// device per entry of `device_ids` carrying a FaultInjector for fleet
/// device device_ids[i], with seeded backoff sleeps in between. An attempt
/// fails with the first faulted device's status in device order, or with
/// DataLoss when the transfer checksum catches an injected corruption.
/// `salt` decorrelates fault/jitter streams across units (callers pass a
/// stable per-unit value such as the group index or batch*1000+group).
/// With the fault plan disabled this is exactly one call of `body`.
void RunAttempts(const EngineOptions& options, std::span<const int> device_ids,
                 uint64_t salt, const obs::Observer& observer,
                 const AttemptBody& body, ResilientOutcome* outcome);

/// RunAttempts with k = 1: executes `group` with the engine's strategy on
/// fleet device `device_id`.
ResilientOutcome ExecuteGroupResilient(const Engine& engine,
                                       std::span<const graph::VertexId> group,
                                       int device_id, uint64_t salt,
                                       const obs::Observer& observer);

/// Round-robin router over the simulated device fleet with one circuit
/// breaker per device: `failure_threshold` consecutive failures open a
/// device's breaker and Acquire stops returning it (a success anywhere
/// before that resets its count). Opened breakers stay open — the injected
/// permanent failures this guards against do not heal — so when every
/// breaker is open Acquire returns kNoDevice and the caller degrades to
/// its fallback. Thread-safe.
class DeviceRouter {
 public:
  static constexpr int kNoDevice = -1;

  DeviceRouter(int device_count, int failure_threshold);

  /// Next healthy device ordinal, or kNoDevice when all breakers are open.
  int Acquire();

  /// Report one attempt's outcome on `device_id`; failures may open the
  /// breaker. Returns true when this call opened it.
  bool ReportFailure(int device_id);
  void ReportSuccess(int device_id);

  bool IsOpen(int device_id) const;
  int healthy_count() const;
  /// Breakers opened since construction.
  int64_t opened_total() const;

 private:
  mutable std::mutex mu_;
  std::vector<int> consecutive_failures_;
  std::vector<bool> open_;
  int failure_threshold_;
  size_t next_ = 0;
  int64_t opened_total_ = 0;
};

}  // namespace ibfs

#endif  // IBFS_CORE_RESILIENT_H_
