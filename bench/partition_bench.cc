// 1D-partitioned execution bench, one BENCH_partition.json:
//
// The same concurrent-BFS workload run unpartitioned (the baseline
// Engine) and partitioned across P = {1, 2, 4, 8} simulated devices under
// both frontier-exchange schedules. The bench itself aborts unless every
// point's depth checksum equals the baseline's (partitioning moves edges
// between devices, never answers) and the P = 1 point's simulated seconds
// equal the engine's (at P = 1 the partitioned run is the engine's run).
// tools/check_bench.py (ctest bench_partition_smoke) then requires the
// comm model's outputs (compute/comm/sim seconds, bytes on wire, rounds,
// supersteps, edge imbalance) to equal the committed ones exactly and
// bands the wall clock. The comm model's shape (all-gather grows with P,
// the butterfly wins at P >= 4 on the same bytes) is pinned by
// RunPartitionedTest.CommGrowsWithPartitionsAndButterflyWins.
//
// Environment knobs: IBFS_GRAPH (default PK), IBFS_SCALE (default 0),
// IBFS_PARTITION_INSTANCES (default 64), IBFS_PARTITION_GROUP (default
// 32), IBFS_BENCH_OUT (default BENCH_partition.json).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/cluster_engine.h"
#include "gpusim/memory_model.h"
#include "util/checksum.h"

namespace ibfs::bench {
namespace {

int Main() {
  PrintHeader("partition bench",
              "1D edge-partitioned execution vs the single-device engine");
  BenchArtifact out("partition");
  out.Int("IBFS_SCALE", 0);
  std::vector<LoadedGraph> loaded_set =
      LoadNamed({out.String("IBFS_GRAPH", "PK")});
  const LoadedGraph& loaded = loaded_set.front();

  const int64_t instances = out.Int("IBFS_PARTITION_INSTANCES", 64);
  EngineOptions options = BaseOptions(Strategy::kBitwise,
                                      GroupingPolicy::kGroupBy);
  options.group_size = static_cast<int>(out.Int("IBFS_PARTITION_GROUP", 32));
  options.traversal.collect_instance_stats = false;
  // BaseOptions drops depths (benches usually only need timing); parity
  // gating folds every depth vector, so keep them.
  options.keep_depths = true;
  const std::vector<graph::VertexId> sources =
      Sources(loaded.graph, instances);

  Engine engine(&loaded.graph, options);
  auto baseline = engine.Run(sources);
  IBFS_CHECK(baseline.ok()) << baseline.status().ToString();
  const uint64_t baseline_checksum = DepthChecksum(baseline.value().groups);
  std::printf("baseline: %zu groups, sim %.3f ms, checksum 0x%016" PRIx64
              "\n\n",
              baseline.value().groups.size(),
              baseline.value().sim_seconds * 1e3, baseline_checksum);
  out.Count("baseline.depth_checksum", "fnv1a", baseline_checksum);
  out.Sim("baseline.sim_seconds", "s", baseline.value().sim_seconds);

  std::printf("%4s %10s %12s %12s %14s %8s %6s %6s\n", "P", "schedule",
              "compute ms", "comm ms", "bytes", "rounds", "imbal", "match");
  for (int partitions : {1, 2, 4, 8}) {
    for (auto schedule : {gpusim::CommSchedule::kAllGather,
                          gpusim::CommSchedule::kButterfly}) {
      // P=1 has no exchange at all; one point covers both schedules.
      if (partitions == 1 &&
          schedule == gpusim::CommSchedule::kButterfly) {
        continue;
      }
      PartitionRunOptions prun;
      prun.partitions = partitions;
      prun.schedule = schedule;
      auto run = RunPartitioned(loaded.graph, sources, options, prun);
      IBFS_CHECK(run.ok()) << run.status().ToString();
      const PartitionedRunResult& res = run.value();
      const char* schedule_name = gpusim::CommScheduleName(schedule);
      const bool checksum_match =
          DepthChecksum(res.groups) == baseline_checksum;
      std::printf("%4d %10s %12.3f %12.3f %14lld %8lld %6.3f %6s\n",
                  partitions, schedule_name, res.compute_seconds * 1e3,
                  res.comm_seconds * 1e3,
                  static_cast<long long>(res.bytes_on_wire),
                  static_cast<long long>(res.comm_rounds),
                  res.edge_imbalance, checksum_match ? "yes" : "NO");
      IBFS_CHECK(checksum_match)
          << "partitioned depths diverged from the engine at P="
          << partitions << " schedule=" << schedule_name;
      IBFS_CHECK(partitions != 1 ||
                 res.sim_seconds == baseline.value().sim_seconds)
          << "P=1 simulated seconds " << res.sim_seconds
          << " != engine " << baseline.value().sim_seconds;
      const std::string point =
          "p" + std::to_string(partitions) + "_" + schedule_name;
      out.Sim(point + ".compute_seconds", "s", res.compute_seconds);
      out.Sim(point + ".comm_seconds", "s", res.comm_seconds);
      out.Sim(point + ".sim_seconds", "s", res.sim_seconds);
      out.Count(point + ".bytes_on_wire", "bytes",
                static_cast<uint64_t>(res.bytes_on_wire));
      out.Count(point + ".rounds", "rounds",
                static_cast<uint64_t>(res.comm_rounds));
      out.Count(point + ".supersteps", "levels",
                static_cast<uint64_t>(res.supersteps));
      out.Sim(point + ".edge_imbalance", "ratio", res.edge_imbalance);
      out.Wall(point + ".wall_seconds", "s", Better::kLower, res.wall_seconds);
    }
  }
  std::printf("\n");
  return out.Write();
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
