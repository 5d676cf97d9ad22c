#include "core/cluster_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/group_plan.h"
#include "core/resilient.h"
#include "ibfs/level_program.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checksum.h"
#include "util/thread_pool.h"

namespace ibfs {
namespace {

// Cluster device tracks live in their own pid range so they never collide
// with the single-device track (engine pid, usually 0) or the host track
// (obs::kHostPid).
constexpr int kClusterPidBase = 100;

// Partitioned-run device tracks get their own pid range above the cluster's
// so a trace can hold both execution modes side by side.
constexpr int kPartitionPidBase = 200;

}  // namespace

Result<ClusterRunResult> RunOnCluster(const graph::Csr& graph,
                                      std::span<const graph::VertexId> sources,
                                      const EngineOptions& options,
                                      int device_count,
                                      gpusim::PlacementPolicy policy) {
  if (device_count < 1) {
    return Status::InvalidArgument("device_count must be >= 1");
  }
  // Measurement pass: one single-device run yields the per-group costs the
  // placement policy needs up front (LPT sorts by cost before assigning).
  EngineOptions opts = options;
  opts.keep_depths = false;
  Engine engine(&graph, opts);
  Result<EngineResult> run = engine.Run(sources);
  IBFS_RETURN_NOT_OK(run.status());

  ClusterRunResult result;
  result.engine = std::move(run).value();
  const EngineResult& res = result.engine;
  result.single_device_seconds = res.sim_seconds;
  const size_t group_count = res.group_seconds.size();
  result.group_count = static_cast<int64_t>(group_count);
  gpusim::Cluster cluster(device_count, opts.device);
  const gpusim::ClusterRun placement = cluster.Place(res.group_seconds, policy);

  // Execution pass: run each device's placed unit list for real, one
  // simulated device per worker thread, instead of replaying the measured
  // timings. Units on one device execute back to back in placement order
  // (ascending planned start), on a continuous per-GPU timeline — so the
  // schedule below carries *measured* starts and busy times. Each device is
  // sequential within itself, so the measured numbers do not depend on the
  // worker count.
  std::vector<std::vector<size_t>> device_units(
      static_cast<size_t>(device_count));
  for (size_t g = 0; g < group_count; ++g) {
    device_units[static_cast<size_t>(placement.unit_device[g])].push_back(g);
  }
  for (auto& units : device_units) {
    std::sort(units.begin(), units.end(), [&](size_t a, size_t b) {
      if (placement.unit_start_seconds[a] != placement.unit_start_seconds[b]) {
        return placement.unit_start_seconds[a] <
               placement.unit_start_seconds[b];
      }
      return a < b;
    });
  }

  result.schedule.unit_device = placement.unit_device;
  result.schedule.total_seconds = placement.total_seconds;
  result.schedule.device_seconds.assign(static_cast<size_t>(device_count),
                                        0.0);
  result.schedule.unit_start_seconds.assign(group_count, 0.0);

  const obs::Observer& observer = options.observer;
  const char* policy_name =
      policy == gpusim::PlacementPolicy::kLpt ? "lpt" : "round-robin";
  if (observer.tracing()) {
    for (int d = 0; d < device_count; ++d) {
      observer.tracer->SetProcessName(
          kClusterPidBase + d,
          "cluster GPU " + std::to_string(d) + " (simulated time)");
    }
  }
  // The execution pass traces (kernel/level/cluster spans on the per-GPU
  // pids) but does not meter: the measurement run already counted every
  // kernel and level once, and executing the same groups again would double
  // the engine.* / gpusim.* counters.
  obs::Observer exec_observer;
  exec_observer.tracer = observer.tracer;

  std::vector<Status> device_status(static_cast<size_t>(device_count),
                                    Status::OK());
  auto run_device = [&](int64_t d) {
    gpusim::Device device(opts.device);
    const obs::Observer dev_observer =
        exec_observer.WithTrack(kClusterPidBase + static_cast<int>(d), 0);
    for (size_t g : device_units[static_cast<size_t>(d)]) {
      const double start = device.elapsed_seconds();
      Result<GroupResult> group_result =
          engine.ExecuteGroup(res.group_sources[g], &device, dev_observer);
      if (!group_result.ok()) {
        device_status[static_cast<size_t>(d)] = group_result.status();
        return;
      }
      result.schedule.unit_start_seconds[g] = start;
      if (dev_observer.tracing()) {
        dev_observer.tracer->CompleteSpan(
            dev_observer.track, "group " + std::to_string(g), "cluster",
            start * 1e6, (device.elapsed_seconds() - start) * 1e6,
            {obs::Arg("device", static_cast<int64_t>(d)),
             obs::Arg("policy", policy_name)});
      }
    }
    result.schedule.device_seconds[static_cast<size_t>(d)] =
        device.elapsed_seconds();
  };

  const int exec_threads = ThreadPool::WorkersFor(opts.threads, device_count);
  if (exec_threads <= 1) {
    for (int d = 0; d < device_count; ++d) run_device(d);
  } else {
    ThreadPool pool(exec_threads);
    pool.ParallelFor(device_count, run_device);
  }
  for (const Status& s : device_status) IBFS_RETURN_NOT_OK(s);

  result.schedule.makespan_seconds =
      result.schedule.device_seconds.empty()
          ? 0.0
          : *std::max_element(result.schedule.device_seconds.begin(),
                              result.schedule.device_seconds.end());
  if (result.schedule.makespan_seconds > 0.0) {
    result.speedup =
        result.single_device_seconds / result.schedule.makespan_seconds;
    const double edges = static_cast<double>(graph.edge_count()) *
                         static_cast<double>(sources.size());
    result.teps = edges / result.schedule.makespan_seconds;
  }

  if (observer.metering()) {
    observer.metrics->GetGauge("cluster.devices")
        ->Set(static_cast<double>(device_count));
    observer.metrics->GetGauge("cluster.makespan_seconds")
        ->Set(result.schedule.makespan_seconds);
    observer.metrics->GetGauge("cluster.speedup")->Set(result.speedup);
  }
  return result;
}

uint64_t DepthChecksum(std::span<const GroupResult> groups) {
  uint64_t state = kFnv1aOffsetBasis;
  for (const GroupResult& group : groups) {
    for (const std::vector<uint8_t>& depths : group.depths) {
      state = Fnv1aExtend(state, depths);
    }
  }
  return state;
}

Result<PartitionedRunResult> RunPartitioned(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const EngineOptions& options, const PartitionRunOptions& run) {
  IBFS_RETURN_NOT_OK(options.Validate());
  const auto wall_start = std::chrono::steady_clock::now();

  // Same single grouping code path as Engine::Run, so the partitioned run's
  // group structure matches the unpartitioned engine exactly.
  Result<GroupPlan> plan =
      GroupSources(graph, sources, options, DuplicatePolicy::kAllow);
  IBFS_RETURN_NOT_OK(plan.status());
  const std::vector<std::vector<graph::VertexId>>& groups =
      plan.value().grouping.groups;

  gpusim::LinkSpec link{options.device.link_bandwidth_gbps,
                        options.device.link_latency_us};
  if (run.link_gbps > 0.0) link.bandwidth_gbps = run.link_gbps;
  if (run.link_us >= 0.0) link.latency_us = run.link_us;

  PartitionedRunResult result;
  result.schedule = run.schedule;
  result.link = link;
  // Partitions run on views of `graph` (owned ranges).
  std::vector<graph::VertexRange> owned;
  {
    Result<graph::Partitioning> parted =
        graph::PartitionByEdges1D(graph, run.partitions);
    IBFS_RETURN_NOT_OK(parted.status());
    result.edge_imbalance = parted.value().EdgeImbalance();
    for (const graph::GraphPartition& part : parted.value().parts) {
      owned.push_back(part.range);
      result.partition_vertices.push_back(part.range.size());
      result.partition_edges.push_back(part.edges);
    }
  }
  const int P = static_cast<int>(owned.size());
  result.partitions = P;
  result.device_seconds.assign(static_cast<size_t>(P), 0.0);

  const obs::Observer& observer = options.observer;
  if (observer.tracing()) {
    for (int p = 0; p < P; ++p) {
      observer.tracer->SetProcessName(
          kPartitionPidBase + p,
          "partition GPU " + std::to_string(p) + " (simulated time)");
    }
  }
  obs::MetricsRegistry* metrics =
      observer.metering() ? observer.metrics : nullptr;
  // The engine's traversal settings; level spans go to partition 0's track.
  TraversalOptions traversal = options.traversal;
  traversal.record_depths = options.keep_depths;
  traversal.observer = observer.WithTrack(kPartitionPidBase, 0);

  const int threads = ThreadPool::WorkersFor(options.threads, P);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  const ForEachPartition for_partitions =
      [&](const std::function<void(int64_t)>& fn) {
        if (pool.has_value()) {
          pool->ParallelFor(P, fn);
        } else {
          for (int p = 0; p < P; ++p) fn(p);
        }
      };

  // Partition p draws its faults from fleet device p % faults.device_count,
  // matching the engine's "group g runs on device g % device_count"
  // convention. One ledger threads through every group, so the fault and
  // cost accounting folds in the same order as the attempts ran.
  std::vector<int> device_ids(static_cast<size_t>(P));
  for (int p = 0; p < P; ++p) {
    device_ids[static_cast<size_t>(p)] = p % options.faults.device_count;
  }
  ResilientOutcome ledger;

  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<graph::VertexId>& group = groups[g];

    // The latest attempt's comm accounting and device clocks, committed to
    // the result only once the attempt loop reports success.
    struct AttemptCost {
      double compute = 0.0;
      double comm = 0.0;
      int64_t bytes = 0;
      int64_t rounds = 0;
      int64_t steps = 0;
      std::vector<double> device_seconds;
    } attempt;

    // The attempt body: the strategy's level program over the P views,
    // stepped in lockstep.
    const auto level_loop = [&](std::span<gpusim::Device> devices)
        -> Result<GroupResult> {
      attempt = AttemptCost();
      std::vector<gpusim::PhaseId> comm_phase(static_cast<size_t>(P));
      for (int p = 0; p < P; ++p) {
        gpusim::Device& device = devices[static_cast<size_t>(p)];
        device.SetObserver(observer.WithTrack(kPartitionPidBase + p, 0));
        if (P > 1) {
          comm_phase[static_cast<size_t>(p)] =
              device.InternPhase("part_exchange");
        }
      }
      Result<std::unique_ptr<LevelProgram>> program = NewLevelProgram(
          options.strategy, graph, group, traversal, owned, devices);
      IBFS_RETURN_NOT_OK(program.status());

      // Level-synchronous: every exchange is a barrier, so the compute
      // clock advances to the slowest rank's kernel time; idle[p] is how
      // long rank p has waited so far. Comm is charged to every rank alike
      // (they sit synchronized in the collective) and stays out of the
      // compute clock. With one partition the clock is the device's own.
      std::vector<double> idle(static_cast<size_t>(P), 0.0);
      const auto barrier = [&] {
        double clock = 0.0;
        for (int p = 0; p < P; ++p) {
          clock = std::max(clock, devices[static_cast<size_t>(p)]
                                          .kernel_seconds() +
                                      idle[static_cast<size_t>(p)]);
        }
        for (int p = 0; p < P; ++p) {
          idle[static_cast<size_t>(p)] =
              clock - devices[static_cast<size_t>(p)].kernel_seconds();
        }
        attempt.compute = clock;
      };
      const ExchangeHook exchange = [&](int64_t bytes_per_rank) {
        if (P == 1) return;
        barrier();
        const gpusim::CommCost cost = gpusim::FrontierExchangeCost(
            run.schedule, P, bytes_per_rank, link);
        for (int p = 0; p < P; ++p) {
          devices[static_cast<size_t>(p)].ChargeCommSeconds(
              comm_phase[static_cast<size_t>(p)], cost.seconds);
        }
        attempt.comm += cost.seconds;
        attempt.bytes += cost.bytes_on_wire;
        attempt.rounds += cost.rounds;
      };
      LevelProgram& levels = *program.value();
      while (!levels.finished()) {
        levels.Step(for_partitions, exchange);
        ++attempt.steps;
        // A fault latches on the device and surfaces at the next sync
        // point — the end of the level — where the attempt is abandoned.
        if (std::any_of(devices.begin(), devices.end(),
                        [](const gpusim::Device& d) { return d.faulted(); })) {
          break;
        }
      }
      barrier();
      for (const gpusim::Device& device : devices) {
        attempt.device_seconds.push_back(device.elapsed_seconds());
      }
      return levels.Finish();
    };

    RunAttempts(options, device_ids, static_cast<uint64_t>(g), observer,
                level_loop, &ledger);
    IBFS_RETURN_NOT_OK(ledger.status);
    result.compute_seconds += attempt.compute;
    result.comm_seconds += attempt.comm;
    result.bytes_on_wire += attempt.bytes;
    result.comm_rounds += attempt.rounds;
    result.supersteps += attempt.steps;
    for (int p = 0; p < P; ++p) {
      result.device_seconds[static_cast<size_t>(p)] +=
          attempt.device_seconds[static_cast<size_t>(p)];
    }
    result.groups.push_back(std::move(ledger.result));
    result.group_sources.push_back(group);
  }
  result.retries = ledger.attempts - static_cast<int64_t>(groups.size());
  result.transient_faults = ledger.transient_faults;
  result.corruptions_detected = ledger.corruptions_detected;
  result.wasted_sim_seconds = ledger.wasted_sim_seconds;
  result.totals = ledger.totals;
  result.phases = std::move(ledger.phases);

  result.sim_seconds = result.compute_seconds + result.comm_seconds;
  if (result.sim_seconds > 0.0) {
    result.teps = static_cast<double>(graph.edge_count()) *
                  static_cast<double>(sources.size()) / result.sim_seconds;
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (metrics != nullptr) {
    metrics->GetGauge("comm.partitions")->Set(static_cast<double>(P));
    metrics->GetGauge("comm.seconds")->Set(result.comm_seconds);
    metrics->GetGauge("comm.edge_imbalance")->Set(result.edge_imbalance);
    metrics->GetCounter("comm.bytes_on_wire")->Increment(result.bytes_on_wire);
    metrics->GetCounter("comm.rounds")->Increment(result.comm_rounds);
    metrics->GetCounter("comm.supersteps")->Increment(result.supersteps);
  }
  return result;
}

}  // namespace ibfs
