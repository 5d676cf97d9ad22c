#ifndef IBFS_GPUSIM_DEVICE_H_
#define IBFS_GPUSIM_DEVICE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/device_spec.h"
#include "gpusim/memory_model.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/status.h"

namespace ibfs::obs {
class Counter;
}  // namespace ibfs::obs

namespace ibfs::gpusim {

class Device;
class FaultInjector;

/// Accounting for one finished kernel launch.
struct KernelStats {
  MemCounters mem;
  double compute_cycles = 0.0;
  double max_item_cycles = 0.0;
  int64_t item_count = 0;
  int64_t launch_count = 0;
  double seconds = 0.0;

  void Add(const KernelStats& other);
};

/// Interned phase tag: index into a device's phase table. Strategies
/// intern their tags once (Device::InternPhase) and open kernels by id, so
/// the per-kernel cost of tagging is an array index — no string allocation,
/// no map lookup.
using PhaseId = int32_t;

/// Per-phase aggregates keyed by tag. The transparent comparator lets
/// lookups run on string_view without materializing a std::string.
using PhaseMap = std::map<std::string, KernelStats, std::less<>>;

/// RAII accounting scope for one simulated kernel launch. Algorithm code
/// opens a scope, reports its memory traffic and compute through the typed
/// methods, and the device converts the totals into simulated time when the
/// scope finishes.
///
/// The scope is the *functional* half of the simulator: its methods only
/// bump plain integer accumulators (transactions via the coalescing
/// arithmetic, op and byte counts verbatim). The *timing* half — the
/// roofline model, occupancy, launch overhead, fault stretching — runs once
/// per kernel in Device::FinishKernel. Cost-model constants in the shipped
/// DeviceSpecs are dyadic rationals, so the simulated seconds produced from
/// the batched totals are bit-identical to charging every call through the
/// model individually.
///
/// Work items (BeginItem/EndItem) bracket one schedulable unit — typically
/// the per-frontier work of one warp — so the device can bound the makespan
/// by the slowest unit, which is how bottom-up workload imbalance
/// (Figure 11) becomes visible in simulated time. Batched charges must land
/// inside the same item bracket as the per-call charges they replace, or
/// the makespan bound would shift.
class KernelScope {
 public:
  KernelScope(KernelScope&& other) noexcept;
  KernelScope& operator=(KernelScope&&) = delete;
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

  /// Finishes the kernel if End() was not called explicitly.
  ~KernelScope();

  /// One warp load request gathering lanes' `indices` into an array of
  /// `elem_bytes` elements (kInactiveLane masks a lane off).
  void LoadGather(std::span<const int64_t> indices, int elem_bytes);

  /// One-or-more warp load requests covering `count` contiguous elements.
  /// Sub-warp runs (the per-item status-row and short adjacency loads that
  /// dominate the strategies' inner loops) resolve to one inline chunk
  /// computation; longer runs take the closed-form path. Same integers
  /// either way.
  void LoadContiguous(int64_t start_elem, int64_t count, int elem_bytes) {
    if (count <= 0) return;
    if (count < spec_->warp_size) {
      ++mem_.load_requests;
      mem_.load_transactions += static_cast<uint64_t>(ChunkTransactions(
          start_elem * elem_bytes, count * elem_bytes,
          spec_->transaction_bytes));
      return;
    }
    mem_.load_requests += static_cast<uint64_t>(
        (count + spec_->warp_size - 1) / spec_->warp_size);
    mem_.load_transactions += static_cast<uint64_t>(ContiguousTransactions(
        start_elem, count, elem_bytes, spec_->transaction_bytes,
        spec_->warp_size));
  }

  /// One warp store request scattering to lanes' `indices`.
  void StoreGather(std::span<const int64_t> indices, int elem_bytes);

  /// Contiguous (coalesced) store of `count` elements.
  void StoreContiguous(int64_t start_elem, int64_t count, int elem_bytes) {
    if (count <= 0) return;
    if (count < spec_->warp_size) {
      ++mem_.store_requests;
      mem_.store_transactions += static_cast<uint64_t>(ChunkTransactions(
          start_elem * elem_bytes, count * elem_bytes,
          spec_->transaction_bytes));
      return;
    }
    mem_.store_requests += static_cast<uint64_t>(
        (count + spec_->warp_size - 1) / spec_->warp_size);
    mem_.store_transactions += static_cast<uint64_t>(ContiguousTransactions(
        start_elem, count, elem_bytes, spec_->transaction_bytes,
        spec_->warp_size));
  }

  /// Drains a ContiguousRunAggregator as loads: bit-identical to one
  /// LoadContiguous call per observed run.
  void LoadRuns(const ContiguousRunAggregator& agg) {
    mem_.load_requests += static_cast<uint64_t>(agg.requests());
    mem_.load_transactions += static_cast<uint64_t>(agg.transactions());
  }

  /// Drains a ContiguousRunAggregator as stores.
  void StoreRuns(const ContiguousRunAggregator& agg) {
    mem_.store_requests += static_cast<uint64_t>(agg.requests());
    mem_.store_transactions += static_cast<uint64_t>(agg.transactions());
  }

  /// `count` atomic read-modify-writes to global memory.
  void Atomic(int64_t count = 1) {
    if (count > 0) mem_.atomic_ops += static_cast<uint64_t>(count);
  }

  /// Shared-memory traffic in bytes (the adjacency cache of Section 4).
  void SharedBytes(int64_t bytes) {
    if (bytes > 0) mem_.shared_bytes += static_cast<uint64_t>(bytes);
  }

  /// `ops` warp-wide ALU instructions.
  void Compute(int64_t ops) {
    if (ops > 0) compute_ops_ += ops;
  }

  /// Batched entry points for hot loops that charge `count` identical
  /// events at once instead of one call per event. Equivalent to calling
  /// the per-event method `count` times.
  void BulkCompute(int64_t count, int64_t ops_each) {
    if (count > 0 && ops_each > 0) compute_ops_ += count * ops_each;
  }
  void BulkShared(int64_t count, int64_t bytes_each) {
    if (count > 0 && bytes_each > 0) {
      mem_.shared_bytes += static_cast<uint64_t>(count * bytes_each);
    }
  }
  void BulkAtomics(int64_t count) { Atomic(count); }

  /// Extra kernel launches beyond the implicit one (the naive multi-kernel
  /// strategy pays one per BFS instance per level).
  void ExtraLaunches(int64_t count);

  /// Declares the per-CTA shared-memory footprint of this kernel (e.g.
  /// the adjacency cache). Occupancy drops when resident CTAs cannot all
  /// fit their footprint into the SM's shared memory, shrinking the
  /// effective parallel warp slots for this launch.
  void SetCtaSharedBytes(int64_t bytes);

  /// Brackets one schedulable work item (see class comment). BeginItem
  /// snapshots the integer accumulators; EndItem converts the integer
  /// deltas to cycles with one dot product. Because every cost constant is
  /// dyadic and the counts are far below 2^53, each term and each sum is an
  /// exactly-represented rational, so the delta form is bit-identical to
  /// differencing two CyclesNow() evaluations — at half the floating-point
  /// work per item.
  void BeginItem() {
    IBFS_CHECK(!in_item_);
    in_item_ = true;
    item_start_compute_ops_ = compute_ops_;
    item_start_load_txn_ = mem_.load_transactions;
    item_start_store_txn_ = mem_.store_transactions;
    item_start_atomics_ = mem_.atomic_ops;
    item_start_shared_ = mem_.shared_bytes;
  }
  void EndItem() {
    IBFS_CHECK(in_item_);
    in_item_ = false;
    ++item_count_;
    const double cycles =
        static_cast<double>(compute_ops_ - item_start_compute_ops_) *
            spec_->cycles_per_compute_op +
        static_cast<double>(mem_.load_transactions - item_start_load_txn_) *
            spec_->cycles_per_load_transaction +
        static_cast<double>(mem_.store_transactions -
                            item_start_store_txn_) *
            spec_->cycles_per_store_transaction +
        static_cast<double>(mem_.atomic_ops - item_start_atomics_) *
            spec_->cycles_per_atomic +
        static_cast<double>(mem_.shared_bytes - item_start_shared_) *
            spec_->cycles_per_shared_byte;
    if (cycles > max_item_cycles_) max_item_cycles_ = cycles;
  }

  /// Finalizes accounting and charges simulated time to the device.
  /// Idempotent; also called by the destructor.
  void End();

  const MemCounters& mem() const { return mem_; }
  double compute_cycles() const {
    return static_cast<double>(compute_ops_) * spec_->cycles_per_compute_op;
  }

 private:
  friend class Device;
  KernelScope(Device* device, const DeviceSpec* spec, PhaseId phase);

  /// Issue cycles implied by the accumulators so far (compute + memory
  /// system). Exact for dyadic cost constants. Called once per kernel by
  /// Device::FinishKernel — the per-item hot path uses the delta form in
  /// EndItem instead.
  double CyclesNow() const {
    return static_cast<double>(compute_ops_) *
               spec_->cycles_per_compute_op +
           static_cast<double>(mem_.load_transactions) *
               spec_->cycles_per_load_transaction +
           static_cast<double>(mem_.store_transactions) *
               spec_->cycles_per_store_transaction +
           static_cast<double>(mem_.atomic_ops) * spec_->cycles_per_atomic +
           static_cast<double>(mem_.shared_bytes) *
               spec_->cycles_per_shared_byte;
  }

  Device* device_;  // null after End()
  const DeviceSpec* spec_;
  PhaseId phase_;
  MemCounters mem_;
  int64_t compute_ops_ = 0;
  double max_item_cycles_ = 0.0;
  // Accumulator snapshots taken at BeginItem (see EndItem's delta form).
  int64_t item_start_compute_ops_ = 0;
  uint64_t item_start_load_txn_ = 0;
  uint64_t item_start_store_txn_ = 0;
  uint64_t item_start_atomics_ = 0;
  uint64_t item_start_shared_ = 0;
  bool in_item_ = false;
  int64_t item_count_ = 0;
  int64_t launch_count_ = 1;
  int64_t cta_shared_bytes_ = 0;
};

/// One simulated GPU. Accumulates simulated time and per-phase counters
/// across kernel launches; strategies tag phases ("td_inspect",
/// "fq_gen", ...) so the figure harnesses can report phase-local metrics
/// exactly as the paper does with the NVIDIA profiler.
class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::K40());

  /// Interns `tag`, returning its stable id. Idempotent; the first call
  /// per tag allocates its phase slot, later calls are a transparent map
  /// probe. Ids stay valid until ResetStats.
  PhaseId InternPhase(std::string_view tag);

  /// Opens an accounting scope for one kernel launch on an interned phase
  /// — the hot path, no lookup at all.
  KernelScope BeginKernel(PhaseId phase);

  /// Opens an accounting scope for one kernel launch tagged `tag`
  /// (interns on the fly; loops should intern once and use the id form).
  KernelScope BeginKernel(std::string_view tag) {
    return BeginKernel(InternPhase(tag));
  }

  const DeviceSpec& spec() const { return spec_; }

  /// Total simulated seconds across all finished kernels and charged comm.
  double elapsed_seconds() const { return elapsed_seconds_; }

  /// Simulated seconds of the finished kernels alone (no comm): equal to
  /// elapsed_seconds() on a device that never exchanged.
  double kernel_seconds() const { return kernel_seconds_; }

  /// Counter totals across all finished kernels.
  const KernelStats& totals() const { return totals_; }

  /// Aggregated stats for one phase tag (zeroes if never used).
  KernelStats PhaseStats(std::string_view tag) const;

  /// All phase tags seen so far. The reference stays valid (and its nodes
  /// stable) until ResetStats.
  const PhaseMap& phases() const { return phases_; }

  /// Display name of an interned phase.
  const std::string& PhaseName(PhaseId phase) const {
    return *phase_slots_[static_cast<size_t>(phase)].name;
  }

  /// Charges `seconds` of inter-device communication (a frontier exchange
  /// modeled by FrontierExchangeCost) to this device's timeline under
  /// `phase`: advances the simulated clock, folds one launch-less entry
  /// into the phase/total stats, and emits a "comm" trace span when
  /// observing. Comm time is wall time the device spends synchronized in
  /// the exchange, so it is *not* stretched by a straggler injector and
  /// cannot fault — only kernels launch.
  void ChargeCommSeconds(PhaseId phase, double seconds);

  /// Clears all counters, simulated time, and interned phases. No kernel
  /// scope may be open (open scopes hold phase slots).
  void ResetStats();

  /// Attaches an observer: every finished kernel then emits one trace span
  /// (cat "kernel", simulated-time track from the observer) and bumps the
  /// gpusim.* metric counters. Default observer = disabled; the hot path
  /// then pays one null-pointer check per kernel.
  void SetObserver(const obs::Observer& observer);

  const obs::Observer& observer() const { return observer_; }

  /// Attaches a fault injector (non-owning; null detaches). Every finished
  /// kernel then has its simulated time stretched by the injector's
  /// straggler multiplier, and may latch an injected launch failure into
  /// fault_status(). The default (no injector) leaves the timing model
  /// byte-identical to a fault-free device.
  void SetFaultInjector(FaultInjector* injector);

  /// First injected failure since construction/ClearFault (OK = healthy).
  /// Strategies keep charging work after a fault — the model is a launch
  /// failure detected at the next synchronization point — so callers check
  /// this after a group finishes and discard the attempt on non-OK.
  const Status& fault_status() const { return fault_status_; }
  bool faulted() const { return !fault_status_.ok(); }
  void ClearFault() { fault_status_ = Status::OK(); }

 private:
  friend class KernelScope;

  /// Interned phase: name and aggregate point into the maps below (map
  /// nodes are stable), so FinishKernel folds stats in by array index.
  struct PhaseSlot {
    const std::string* name;
    KernelStats* stats;
  };

  /// Converts a finished scope into simulated seconds (roofline model) and
  /// folds it into the device totals.
  void FinishKernel(KernelScope* scope);

  DeviceSpec spec_;
  double elapsed_seconds_ = 0.0;
  double kernel_seconds_ = 0.0;
  KernelStats totals_;
  PhaseMap phases_;
  std::map<std::string, PhaseId, std::less<>> phase_ids_;
  std::vector<PhaseSlot> phase_slots_;
  int open_kernels_ = 0;
  obs::Observer observer_;
  FaultInjector* fault_injector_ = nullptr;
  Status fault_status_;
  // Metric handles cached at SetObserver time (null when metering is off).
  obs::Counter* metric_kernels_ = nullptr;
  obs::Counter* metric_load_txn_ = nullptr;
  obs::Counter* metric_store_txn_ = nullptr;
  obs::Counter* metric_atomics_ = nullptr;
};

}  // namespace ibfs::gpusim

#endif  // IBFS_GPUSIM_DEVICE_H_
