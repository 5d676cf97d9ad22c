// Distributed-fleet bench, five experiments in one BENCH_fleet.json:
//
// 1. Shard-count sweep: the same open-loop workload driven through a
//    single BfsService (the baseline) and through fleets of {1, 2, 4, 8}
//    shards. Every fleet's submit-order checksum must equal the
//    baseline's — the scatter/route/merge path may change latency, never
//    answers. -> "shards_<n>.*" metrics.
//
// 2. Scatter-gather: the same arrivals bundled into multi-source
//    MultiQuery calls (4 sources per scatter) at 4 shards; the flattened
//    request-order checksum must again equal the baseline's.
//    -> "scatter.*".
//
// 3. Failover blip: a 4-shard fleet loses one shard at the schedule
//    midpoint. Every future must still resolve (unanswered == 0) and
//    every answer must match the fault-free CPU baseline; the recorded
//    p99 and reroute count quantify the blip (printed).
//
// 4. Elastic episode: a 3-shard fleet loses shard 1 mid-drive and joins a
//    fresh shard at 75% of the schedule — the full kill -> serve -> grow
//    -> serve arc, with targeted cache warmup of the stolen segment.
//    Zero unanswered futures, zero mismatches and one completed join or
//    the bench aborts. -> "elastic.*".
//
// 5. Replication sweep: the shard-count workload at R = {1, 2}; hedged
//    reads race the second replica, answers stay bit-identical to the
//    baseline, replicas never disagree (or the bench aborts), and the
//    printed hedge counters quantify the insurance premium. -> "r<R>.*".
//
// The query count, the baseline checksum and the scatter count are exact
// metrics; latencies are banded `wall` metrics.
//
// Environment knobs: IBFS_GRAPH (default PK), IBFS_SCALE (default 0),
// IBFS_FLEET_QPS (default 400), IBFS_FLEET_DURATION (default 1 s),
// IBFS_FLEET_VNODES (default 128), IBFS_FLEET_THREADS (default 2),
// IBFS_BENCH_OUT (default BENCH_fleet.json).
#include <string>
#include <vector>

#include "bench/common.h"
#include "fleet/fleet.h"
#include "fleet/fleet_workload.h"
#include "service/service.h"
#include "service/workload.h"
#include "util/checksum.h"

namespace ibfs::bench {
namespace {

struct Latency {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Latency Percentiles(const std::vector<service::QueryResult>& results) {
  const std::vector<double> bounds = obs::PowerOfTwoBounds(0.001, 32);
  obs::Histogram total("total_ms", bounds);
  for (const service::QueryResult& result : results) {
    if (result.status.ok()) total.Observe(result.latency.total_ms);
  }
  return {total.Percentile(0.50), total.Percentile(0.95),
          total.Percentile(0.99)};
}

// Submit-order fold of the OK depth checksums — the same merge DriveFleet
// computes, applied to the single-service baseline for comparison.
uint64_t FoldResults(const std::vector<service::QueryResult>& results) {
  uint64_t checksum = kFnv1aOffsetBasis;
  for (const service::QueryResult& result : results) {
    if (result.status.ok()) {
      checksum = fleet::FoldChecksum(checksum, result.depth_checksum);
    }
  }
  return checksum;
}

int Main() {
  PrintHeader("fleet bench",
              "shard sweep, scatter-gather, failover, elasticity, "
              "replication");
  BenchArtifact out("fleet");
  out.Int("IBFS_SCALE", 0);
  const std::string graph_name = out.String("IBFS_GRAPH", "PK");
  std::vector<LoadedGraph> loaded_set = LoadNamed({graph_name});
  const LoadedGraph& loaded = loaded_set.front();

  service::WorkloadOptions arrivals;
  arrivals.arrival = service::ArrivalProcess::kPoisson;
  arrivals.qps = out.Double("IBFS_FLEET_QPS", 400.0);
  arrivals.duration_s = out.Double("IBFS_FLEET_DURATION", 1.0);
  arrivals.seed = 2016;
  auto events = service::GenerateArrivals(loaded.graph, arrivals);
  IBFS_CHECK(events.ok()) << events.status().ToString();

  service::ServiceOptions service_template;
  service_template.max_batch = 64;
  service_template.max_delay_ms = 2.0;
  service_template.execute_threads =
      static_cast<int>(out.Int("IBFS_FLEET_THREADS", 2));
  service_template.keep_depths = false;
  service_template.engine =
      BaseOptions(Strategy::kBitwise, GroupingPolicy::kGroupBy);

  // Single-service baseline: the answers every fleet configuration must
  // reproduce bit for bit.
  auto baseline_svc =
      service::BfsService::Create(&loaded.graph, service_template);
  IBFS_CHECK(baseline_svc.ok()) << baseline_svc.status().ToString();
  auto baseline =
      service::DriveWorkload(baseline_svc.value().get(), events.value());
  IBFS_CHECK(baseline.ok()) << baseline.status().ToString();
  const uint64_t baseline_checksum = FoldResults(baseline.value().results);
  const Latency baseline_latency = Percentiles(baseline.value().results);
  out.Count("queries", "queries", events.value().size());
  out.Count("baseline.checksum", "fnv1a", baseline_checksum);
  const auto record_latency = [&out](const std::string& prefix,
                                     double p50_ms, double p99_ms) {
    out.Wall(prefix + ".p50_ms", "ms", Better::kLower, p50_ms);
    out.Wall(prefix + ".p99_ms", "ms", Better::kLower, p99_ms);
  };
  std::printf("%8s %8s %8s %10s %10s %6s\n", "shards", "p50 ms", "p99 ms",
              "qps", "imbalance", "match");
  std::printf("%8s %8.2f %8.2f %10.1f %10s %6s\n", "base",
              baseline_latency.p50, baseline_latency.p99,
              baseline.value().achieved_qps, "-", "-");

  const int vnodes = static_cast<int>(out.Int("IBFS_FLEET_VNODES", 128));
  for (int shards : {1, 2, 4, 8}) {
    fleet::FleetOptions options;
    options.shards = shards;
    options.vnodes = vnodes;
    options.service = service_template;
    auto door = fleet::FleetFrontDoor::Create(&loaded.graph, options);
    IBFS_CHECK(door.ok()) << door.status().ToString();
    fleet::FleetWorkloadOptions workload;
    workload.workload = arrivals;
    auto drive =
        fleet::DriveFleet(door.value().get(), events.value(), workload);
    IBFS_CHECK(drive.ok()) << drive.status().ToString();
    IBFS_CHECK(drive.value().unanswered == 0)
        << drive.value().unanswered << " futures never resolved";
    IBFS_CHECK(drive.value().checksum == baseline_checksum)
        << shards << "-shard fleet disagreed with the single-service "
        << "baseline";
    const Latency latency = Percentiles(drive.value().results);
    std::printf("%8d %8.2f %8.2f %10.1f %10.2f %6s\n", shards, latency.p50,
                latency.p99, drive.value().achieved_qps,
                drive.value().stats.Imbalance(), "yes");
    record_latency("shards_" + std::to_string(shards), latency.p50,
                   latency.p99);
  }

  // Scatter-gather: identical arrivals, bundled 4 sources per MultiQuery.
  fleet::FleetWorkloadOptions scatter_workload;
  scatter_workload.workload = arrivals;
  scatter_workload.multi_source = 4;
  fleet::FleetOptions scatter_options;
  scatter_options.shards = 4;
  scatter_options.vnodes = vnodes;
  scatter_options.service = service_template;
  auto scatter_door =
      fleet::FleetFrontDoor::Create(&loaded.graph, scatter_options);
  IBFS_CHECK(scatter_door.ok()) << scatter_door.status().ToString();
  auto scatter = fleet::DriveFleet(scatter_door.value().get(),
                                   events.value(), scatter_workload);
  IBFS_CHECK(scatter.ok()) << scatter.status().ToString();
  IBFS_CHECK(scatter.value().unanswered == 0);
  IBFS_CHECK(scatter.value().checksum == baseline_checksum)
      << "scatter-gather answers disagreed with the baseline";
  const Latency scatter_latency = Percentiles(scatter.value().results);
  std::printf("scatter-gather:  %lld multi-queries of 4, p50 %.2f ms, "
              "p99 %.2f ms, match yes\n",
              static_cast<long long>(scatter.value().multi_queries),
              scatter_latency.p50, scatter_latency.p99);
  out.Count("scatter.multi_queries", "queries",
            static_cast<uint64_t>(scatter.value().multi_queries));

  // Failover blip: 4 shards, one killed at the schedule midpoint. The
  // chaos harness also verifies every answer against the CPU reference.
  fleet::FleetWorkloadOptions failover_workload;
  failover_workload.workload = arrivals;
  failover_workload.kill_shard = 1;
  fleet::FleetOptions failover_options;
  failover_options.shards = 4;
  failover_options.vnodes = vnodes;
  failover_options.service = service_template;
  auto failover = fleet::RunFleetChaos(graph_name, loaded.graph,
                                       failover_options, failover_workload);
  IBFS_CHECK(failover.ok()) << failover.status().ToString();
  const obs::FleetReport& blip = failover.value();
  IBFS_CHECK(blip.unanswered == 0)
      << blip.unanswered << " futures never resolved across the failover";
  IBFS_CHECK(blip.checksum_mismatches == 0)
      << blip.checksum_mismatches << " answers diverged after the failover";
  std::printf("failover:        shard 1 killed mid-run; %lld reroutes, "
              "%lld unanswered, %lld/%lld checksums OK, p99 %.2f ms\n",
              static_cast<long long>(blip.failover_reroutes),
              static_cast<long long>(blip.unanswered),
              static_cast<long long>(blip.checksums_compared -
                                     blip.checksum_mismatches),
              static_cast<long long>(blip.checksums_compared),
              blip.total_ms.p99);

  // Elastic episode: kill shard 1 at the midpoint, join a replacement at
  // 75% — traffic never stops, no future is lost, and every answer stays
  // bit-identical to the CPU baseline through both membership changes.
  fleet::FleetWorkloadOptions elastic_workload;
  elastic_workload.workload = arrivals;
  elastic_workload.kill_shard = 1;
  elastic_workload.join_shards = 1;
  fleet::FleetOptions elastic_options;
  elastic_options.shards = 3;
  elastic_options.vnodes = vnodes;
  elastic_options.service = service_template;
  elastic_options.service.cache.enabled = true;  // exercise join warmup
  auto elastic = fleet::RunFleetChaos(graph_name, loaded.graph,
                                      elastic_options, elastic_workload);
  IBFS_CHECK(elastic.ok()) << elastic.status().ToString();
  const obs::FleetReport& episode = elastic.value();
  IBFS_CHECK(episode.unanswered == 0)
      << episode.unanswered << " futures never resolved across the episode";
  IBFS_CHECK(episode.checksum_mismatches == 0)
      << episode.checksum_mismatches << " answers diverged in the episode";
  IBFS_CHECK(episode.shard_joins == 1)
      << "the elastic join never happened";
  std::printf("elastic:         kill 1 + join 1; %lld warmup entries, "
              "%lld reroutes, %lld/%lld checksums OK, p99 %.2f ms\n",
              static_cast<long long>(episode.warmup_entries),
              static_cast<long long>(episode.failover_reroutes),
              static_cast<long long>(episode.checksums_compared -
                                     episode.checksum_mismatches),
              static_cast<long long>(episode.checksums_compared),
              episode.total_ms.p99);
  record_latency("elastic", episode.total_ms.p50, episode.total_ms.p99);

  // Replication sweep: R = {1, 2} at 4 shards. R = 1 is the zero-overhead
  // control; R = 2 hedges slow reads against the second replica. Both must
  // reproduce the baseline checksums exactly.
  for (int replication : {1, 2}) {
    fleet::FleetOptions options;
    options.shards = 4;
    options.vnodes = vnodes;
    options.service = service_template;
    options.service.cache.enabled = true;  // exercise replica fan-out
    options.replication = replication;
    auto door = fleet::FleetFrontDoor::Create(&loaded.graph, options);
    IBFS_CHECK(door.ok()) << door.status().ToString();
    fleet::FleetWorkloadOptions workload;
    workload.workload = arrivals;
    auto drive =
        fleet::DriveFleet(door.value().get(), events.value(), workload);
    IBFS_CHECK(drive.ok()) << drive.status().ToString();
    IBFS_CHECK(drive.value().unanswered == 0)
        << drive.value().unanswered << " futures never resolved at R="
        << replication;
    IBFS_CHECK(drive.value().checksum == baseline_checksum)
        << "R=" << replication
        << " fleet disagreed with the single-service baseline";
    const fleet::FleetStats& stats = drive.value().stats;
    IBFS_CHECK(stats.replica_mismatches == 0)
        << stats.replica_mismatches << " replica mismatches at R="
        << replication;
    const Latency latency = Percentiles(drive.value().results);
    std::printf("replication R=%d: p50 %.2f ms, p99 %.2f ms, %lld hedges "
                "(%lld won), match yes\n",
                replication, latency.p50, latency.p99,
                static_cast<long long>(stats.hedges_fired),
                static_cast<long long>(stats.hedges_won));
    record_latency("r" + std::to_string(replication), latency.p50,
                   latency.p99);
  }
  return out.Write();
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
