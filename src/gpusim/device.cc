#include "gpusim/device.h"

#include <algorithm>

#include "gpusim/fault.h"
#include "obs/metrics.h"

namespace ibfs::gpusim {

void KernelStats::Add(const KernelStats& other) {
  mem.Add(other.mem);
  compute_cycles += other.compute_cycles;
  max_item_cycles = std::max(max_item_cycles, other.max_item_cycles);
  item_count += other.item_count;
  launch_count += other.launch_count;
  seconds += other.seconds;
}

KernelScope::KernelScope(Device* device, const DeviceSpec* spec,
                         PhaseId phase)
    : device_(device), spec_(spec), phase_(phase) {}

KernelScope::KernelScope(KernelScope&& other) noexcept
    : device_(other.device_),
      spec_(other.spec_),
      phase_(other.phase_),
      mem_(other.mem_),
      compute_ops_(other.compute_ops_),
      max_item_cycles_(other.max_item_cycles_),
      item_start_compute_ops_(other.item_start_compute_ops_),
      item_start_load_txn_(other.item_start_load_txn_),
      item_start_store_txn_(other.item_start_store_txn_),
      item_start_atomics_(other.item_start_atomics_),
      item_start_shared_(other.item_start_shared_),
      in_item_(other.in_item_),
      item_count_(other.item_count_),
      launch_count_(other.launch_count_),
      cta_shared_bytes_(other.cta_shared_bytes_) {
  other.device_ = nullptr;
}

KernelScope::~KernelScope() { End(); }

void KernelScope::LoadGather(std::span<const int64_t> indices,
                             int elem_bytes) {
  mem_.load_requests += 1;
  mem_.load_transactions += static_cast<uint64_t>(
      GatherTransactions(indices, elem_bytes, spec_->transaction_bytes));
}

void KernelScope::StoreGather(std::span<const int64_t> indices,
                              int elem_bytes) {
  mem_.store_requests += 1;
  mem_.store_transactions += static_cast<uint64_t>(
      GatherTransactions(indices, elem_bytes, spec_->transaction_bytes));
}

void KernelScope::ExtraLaunches(int64_t count) {
  if (count > 0) launch_count_ += count;
}

void KernelScope::SetCtaSharedBytes(int64_t bytes) {
  cta_shared_bytes_ = std::max(cta_shared_bytes_, bytes);
}

void KernelScope::End() {
  if (device_ == nullptr) return;
  device_->FinishKernel(this);
  device_ = nullptr;
}

Device::Device(DeviceSpec spec) : spec_(std::move(spec)) {}

PhaseId Device::InternPhase(std::string_view tag) {
  const auto it = phase_ids_.find(tag);
  if (it != phase_ids_.end()) return it->second;
  const PhaseId id = static_cast<PhaseId>(phase_slots_.size());
  const auto id_node = phase_ids_.emplace(std::string(tag), id).first;
  const auto stat_node = phases_.emplace(id_node->first, KernelStats{}).first;
  phase_slots_.push_back(PhaseSlot{&id_node->first, &stat_node->second});
  return id;
}

KernelScope Device::BeginKernel(PhaseId phase) {
  IBFS_CHECK(phase >= 0 &&
             static_cast<size_t>(phase) < phase_slots_.size());
  ++open_kernels_;
  return KernelScope(this, &spec_, phase);
}

void Device::FinishKernel(KernelScope* scope) {
  // The timing model runs here, once per kernel, over the scope's batched
  // totals: strategies only touched integer accumulators until now.
  const double total_cycles = scope->CyclesNow();
  // Shared-memory occupancy: each resident CTA claims cta_shared bytes,
  // so an SM hosts at most shared_capacity / cta_shared CTAs. When the
  // resident-warp count falls below the saturation point, latency hiding
  // degrades and the effective parallel slots shrink proportionally.
  double slots = static_cast<double>(spec_.parallel_warp_slots);
  if (scope->cta_shared_bytes_ > 0) {
    const double max_ctas_by_shared =
        static_cast<double>(spec_.shared_mem_per_sm_bytes) /
        static_cast<double>(scope->cta_shared_bytes_);
    const double occupancy =
        std::min(1.0, max_ctas_by_shared *
                          static_cast<double>(spec_.warps_per_cta) /
                          static_cast<double>(spec_.resident_warps_per_sm));
    const double saturation =
        std::min(1.0, occupancy / spec_.saturation_occupancy);
    slots = std::max(1.0, slots * saturation);
  }
  // Roofline: compute-issue makespan over the parallel warp slots, bounded
  // below by the slowest single work item and by DRAM bandwidth.
  const double compute_seconds =
      std::max(total_cycles / slots, scope->max_item_cycles_) /
      (spec_.clock_ghz * 1e9);
  const double dram_seconds =
      static_cast<double>(scope->mem_.DramBytes(spec_.dram_sector_bytes)) /
      (spec_.mem_bandwidth_gbps * 1e9);
  double seconds =
      std::max(compute_seconds, dram_seconds) +
      static_cast<double>(scope->launch_count_) * spec_.kernel_launch_overhead_s;
  const PhaseSlot& slot = phase_slots_[static_cast<size_t>(scope->phase_)];
  if (fault_injector_ != nullptr) {
    seconds *= fault_injector_->straggler_multiplier();
    if (!faulted()) {
      Status launch = fault_injector_->OnKernelLaunch();
      if (!launch.ok()) {
        fault_status_ = std::move(launch);
        if (observer_.metering()) {
          observer_.metrics->GetCounter("fault.kernel_faults")->Increment();
        }
        if (observer_.tracing()) {
          observer_.tracer->Instant(
              observer_.track, "kernel_fault", elapsed_seconds_ * 1e6,
              {obs::Arg("tag", *slot.name),
               obs::Arg("status", fault_status_.ToString())});
        }
      }
    }
  }

  KernelStats stats;
  stats.mem = scope->mem_;
  stats.compute_cycles = total_cycles;
  stats.max_item_cycles = scope->max_item_cycles_;
  stats.item_count = scope->item_count_;
  stats.launch_count = scope->launch_count_;
  stats.seconds = seconds;

  if (observer_.tracing()) {
    std::vector<obs::TraceArg> span_args = {
        obs::Arg("load_transactions", stats.mem.load_transactions),
        obs::Arg("store_transactions", stats.mem.store_transactions),
        obs::Arg("atomic_ops", stats.mem.atomic_ops),
        obs::Arg("launches", stats.launch_count),
        obs::Arg("items", stats.item_count)};
    if (!observer_.context.empty()) {
      span_args.push_back(obs::Arg("ctx", observer_.context));
    }
    observer_.tracer->CompleteSpan(observer_.track, *slot.name, "kernel",
                                   elapsed_seconds_ * 1e6, seconds * 1e6,
                                   std::move(span_args));
  }
  if (metric_kernels_ != nullptr) {
    metric_kernels_->Increment(stats.launch_count);
    metric_load_txn_->Increment(
        static_cast<int64_t>(stats.mem.load_transactions));
    metric_store_txn_->Increment(
        static_cast<int64_t>(stats.mem.store_transactions));
    metric_atomics_->Increment(static_cast<int64_t>(stats.mem.atomic_ops));
  }

  elapsed_seconds_ += seconds;
  kernel_seconds_ += seconds;
  totals_.Add(stats);
  slot.stats->Add(stats);
  --open_kernels_;
}

void Device::ChargeCommSeconds(PhaseId phase, double seconds) {
  IBFS_CHECK(phase >= 0 && static_cast<size_t>(phase) < phase_slots_.size());
  if (seconds <= 0.0) return;
  const PhaseSlot& slot = phase_slots_[static_cast<size_t>(phase)];
  if (observer_.tracing()) {
    std::vector<obs::TraceArg> span_args;
    if (!observer_.context.empty()) {
      span_args.push_back(obs::Arg("ctx", observer_.context));
    }
    observer_.tracer->CompleteSpan(observer_.track, *slot.name, "comm",
                                   elapsed_seconds_ * 1e6, seconds * 1e6,
                                   std::move(span_args));
  }
  KernelStats stats;
  stats.seconds = seconds;
  stats.launch_count = 0;
  elapsed_seconds_ += seconds;
  totals_.Add(stats);
  slot.stats->Add(stats);
}

void Device::SetFaultInjector(FaultInjector* injector) {
  fault_injector_ = injector;
}

void Device::SetObserver(const obs::Observer& observer) {
  observer_ = observer;
  if (observer_.metering()) {
    metric_kernels_ = observer_.metrics->GetCounter("gpusim.kernel_launches");
    metric_load_txn_ =
        observer_.metrics->GetCounter("gpusim.load_transactions");
    metric_store_txn_ =
        observer_.metrics->GetCounter("gpusim.store_transactions");
    metric_atomics_ = observer_.metrics->GetCounter("gpusim.atomic_ops");
  } else {
    metric_kernels_ = nullptr;
    metric_load_txn_ = nullptr;
    metric_store_txn_ = nullptr;
    metric_atomics_ = nullptr;
  }
}

KernelStats Device::PhaseStats(std::string_view tag) const {
  const auto it = phases_.find(tag);
  if (it == phases_.end()) return KernelStats{};
  return it->second;
}

void Device::ResetStats() {
  IBFS_CHECK(open_kernels_ == 0)
      << "ResetStats with a kernel scope still open";
  elapsed_seconds_ = 0.0;
  kernel_seconds_ = 0.0;
  totals_ = KernelStats{};
  phases_.clear();
  phase_ids_.clear();
  phase_slots_.clear();
}

}  // namespace ibfs::gpusim
