// Online-serving bench, two experiments in one BENCH_service.json:
//
// 1. Deadline sweep (cache off, for continuity with earlier runs): the
//    same open-loop workload at a sweep of batching deadlines
//    (--max-delay-ms in the CLI), recording the latency-vs-sharing
//    tradeoff dynamic batching buys — longer deadlines close bigger
//    batches (better GroupBy sharing, closer to the offline oracle) at
//    the cost of queue latency. -> "delay_<us>us.*" metrics.
//
// 2. Hot-source cache comparison: a bursty workload over a small pool of
//    distinct sources (the traffic shape the result cache exists for),
//    driven twice over identical arrivals — cache on vs --no-cache — with
//    every per-query depth checksum compared between the two modes.
//    -> "hot.*" metrics.
//
// The bench aborts unless every query is answered and the cached and
// uncached answers agree. Batching, latency, TEPS, sharing and cache hits
// all depend on host timing, so they are `wall` metrics; the query counts
// and the offline oracle's sharing ratio are exact. Latency is recorded at
// p50 and p95 (printed up to p99): with a few hundred queries per run, p95
// is the highest percentile with ten or more samples beyond it.
//
// Environment knobs: IBFS_GRAPH (default PK), IBFS_SCALE (default 0),
// IBFS_QPS (default 400), IBFS_DURATION (default 1 s), IBFS_SERVE_THREADS
// (default 2), IBFS_HOT_QPS (default 600), IBFS_HOT_SOURCES (default 8),
// IBFS_BENCH_OUT (default BENCH_service.json).
//
// Live-telemetry knobs (all off by default; any of them arms the shared
// metrics registry across the sweep): IBFS_ACCESS_LOG (per-query JSONL),
// IBFS_SLO ("<class>:<ms>:<target>" burn-rate tracker), IBFS_LIVE_OUT
// (rolling snapshot JSON), IBFS_PROM_OUT (Prometheus text).
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "service/service.h"
#include "service/workload.h"

namespace ibfs::bench {
namespace {

int Main() {
  PrintHeader("serve bench",
              "dynamic-batching deadline sweep: latency vs sharing");
  BenchArtifact out("service");
  out.Int("IBFS_SCALE", 0);
  const std::string graph_name = out.String("IBFS_GRAPH", "PK");
  std::vector<LoadedGraph> loaded_set = LoadNamed({graph_name});
  const LoadedGraph& loaded = loaded_set.front();
  const int serve_threads =
      static_cast<int>(out.Int("IBFS_SERVE_THREADS", 2));
  service::WorkloadOptions workload;
  workload.arrival = service::ArrivalProcess::kPoisson;
  workload.qps = out.Double("IBFS_QPS", 400.0);
  workload.duration_s = out.Double("IBFS_DURATION", 1.0);
  workload.seed = 2016;
  auto events = service::GenerateArrivals(loaded.graph, workload);
  IBFS_CHECK(events.ok()) << events.status().ToString();

  EngineOptions engine = BaseOptions(Strategy::kBitwise,
                                     GroupingPolicy::kGroupBy);
  auto oracle =
      service::OracleSharingRatio(loaded.graph, engine, events.value());
  IBFS_CHECK(oracle.ok()) << oracle.status().ToString();
  out.Count("queries", "queries", events.value().size());
  out.Sim("oracle_sharing_ratio", "ratio", oracle.value());

  // Optional live-telemetry exercise: the same sinks `ibfs_cli serve`
  // wires, shared across every sweep point so the exporter sees a
  // continuous stream.
  obs::MetricsRegistry live_metrics;
  std::unique_ptr<obs::AccessLog> access_log;
  std::unique_ptr<obs::SloTracker> slo;
  std::unique_ptr<obs::LiveExporter> exporter;
  const std::string access_path = EnvString("IBFS_ACCESS_LOG", "");
  if (!access_path.empty()) {
    auto opened = obs::AccessLog::Open(access_path);
    IBFS_CHECK(opened.ok()) << opened.status().ToString();
    access_log = std::move(opened.value());
  }
  const std::string slo_spec = EnvString("IBFS_SLO", "");
  if (!slo_spec.empty()) {
    auto spec = obs::SloSpec::Parse(slo_spec);
    IBFS_CHECK(spec.ok()) << spec.status().ToString();
    slo = std::make_unique<obs::SloTracker>(spec.value());
  }
  const std::string live_out = EnvString("IBFS_LIVE_OUT", "");
  const std::string prom_out = EnvString("IBFS_PROM_OUT", "");
  const bool live_enabled = access_log != nullptr || slo != nullptr ||
                            !live_out.empty() || !prom_out.empty();
  if (!live_out.empty() || !prom_out.empty()) {
    obs::LiveExporterOptions live_options;
    live_options.live_out = live_out;
    live_options.prom_out = prom_out;
    exporter = std::make_unique<obs::LiveExporter>(live_options,
                                                   &live_metrics, nullptr);
    exporter->Start();
  }

  const std::vector<double> delays = {0.5, 1.0, 2.0, 4.0, 8.0};
  std::printf("%8s %10s %8s %8s %8s %10s %9s\n", "delay", "mean batch",
              "p50 ms", "p95 ms", "p99 ms", "sharing", "vs oracle");
  for (double delay_ms : delays) {
    service::ServiceOptions options;
    options.max_batch = 64;
    options.max_delay_ms = delay_ms;
    options.execute_threads = serve_threads;
    options.keep_depths = false;
    // The sweep measures the batching deadline alone; caching would let
    // repeated sources skip batching and blur the comparison.
    options.cache.enabled = false;
    options.engine = engine;
    if (live_enabled) {
      options.observer.metrics = &live_metrics;
      options.access_log = access_log.get();
      options.slo = slo.get();
    }
    auto svc = service::BfsService::Create(&loaded.graph, options);
    IBFS_CHECK(svc.ok()) << svc.status().ToString();
    auto drive = service::DriveWorkload(svc.value().get(), events.value());
    IBFS_CHECK(drive.ok()) << drive.status().ToString();
    if (live_enabled) svc.value()->PublishLiveTelemetry();
    const obs::ServiceReport r =
        service::BuildServiceReport(graph_name, loaded.graph, options,
                                    workload, drive.value(), oracle.value());
    IBFS_CHECK(r.completed == r.queries)
        << r.queries - r.completed << " queries unanswered at delay "
        << delay_ms << " ms";
    std::printf("%6.1fms %10.1f %8.2f %8.2f %8.2f %9.1f%% %8.1f%%\n",
                delay_ms, r.mean_batch_size, r.total_ms.p50,
                r.total_ms.p95, r.total_ms.p99, 100.0 * r.sharing_ratio,
                100.0 * r.sharing_fraction);
    const std::string point =
        "delay_" + std::to_string(std::lround(delay_ms * 1e3)) + "us.";
    out.Wall(point + "p50_ms", "ms", Better::kLower, r.total_ms.p50);
    out.Wall(point + "p95_ms", "ms", Better::kLower, r.total_ms.p95);
    out.Wall(point + "mean_batch_size", "queries", Better::kHigher,
             r.mean_batch_size);
    out.Wall(point + "teps", "edges/s", Better::kHigher, r.teps);
    out.Wall(point + "sharing_ratio", "ratio", Better::kHigher,
             r.sharing_ratio);
  }

  // Hot-source cache comparison: identical arrivals over a handful of
  // distinct sources, driven uncached then cached. Depth checksums must
  // be bit-identical between the two modes (the cache may only change
  // latency, never answers).
  service::WorkloadOptions hot;
  hot.arrival = service::ArrivalProcess::kBursty;
  hot.qps = out.Double("IBFS_HOT_QPS", 600.0);
  hot.duration_s = workload.duration_s;
  hot.seed = 77;
  hot.burst_size = 16;
  hot.source_pool = out.Int("IBFS_HOT_SOURCES", 8);
  auto hot_events = service::GenerateArrivals(loaded.graph, hot);
  IBFS_CHECK(hot_events.ok()) << hot_events.status().ToString();
  IBFS_CHECK(hot_events.value().size() >= 200)
      << "hot-source workload too small: " << hot_events.value().size();
  auto hot_oracle =
      service::OracleSharingRatio(loaded.graph, engine, hot_events.value());
  IBFS_CHECK(hot_oracle.ok()) << hot_oracle.status().ToString();

  auto drive_hot = [&](bool cache_on) {
    service::ServiceOptions options;
    options.max_batch = 64;
    options.max_delay_ms = 2.0;
    options.execute_threads = serve_threads;
    options.keep_depths = false;
    options.cache.enabled = cache_on;
    options.engine = engine;
    auto svc = service::BfsService::Create(&loaded.graph, options);
    IBFS_CHECK(svc.ok()) << svc.status().ToString();
    auto drive = service::DriveWorkload(svc.value().get(),
                                        hot_events.value());
    IBFS_CHECK(drive.ok()) << drive.status().ToString();
    return std::make_pair(
        service::BuildServiceReport(graph_name, loaded.graph, options, hot,
                                    drive.value(), hot_oracle.value()),
        std::move(drive.value().results));
  };
  auto [uncached_report, uncached_results] = drive_hot(false);
  auto [cached_report, cached_results] = drive_hot(true);
  IBFS_CHECK(uncached_results.size() == cached_results.size());
  bool checksums_match = true;
  for (size_t i = 0; i < uncached_results.size(); ++i) {
    IBFS_CHECK(uncached_results[i].status.ok())
        << uncached_results[i].status.ToString();
    IBFS_CHECK(cached_results[i].status.ok())
        << cached_results[i].status.ToString();
    if (uncached_results[i].depth_checksum !=
        cached_results[i].depth_checksum) {
      checksums_match = false;
    }
  }
  IBFS_CHECK(checksums_match)
      << "cached and uncached runs disagreed on depth checksums";
  const double p50_speedup =
      cached_report.total_ms.p50 > 0.0
          ? uncached_report.total_ms.p50 / cached_report.total_ms.p50
          : 0.0;
  std::printf(
      "\nhot-source (%lld sources, %lld queries, bursty %0.f qps):\n",
      static_cast<long long>(hot.source_pool),
      static_cast<long long>(hot_events.value().size()), hot.qps);
  std::printf("  uncached: p50 %8.3f ms  p95 %8.3f ms\n",
              uncached_report.total_ms.p50, uncached_report.total_ms.p95);
  std::printf("  cached:   p50 %8.3f ms  p95 %8.3f ms  "
              "(%.0fx p50; %lld hits, %.1f%% hit ratio)\n",
              cached_report.total_ms.p50, cached_report.total_ms.p95,
              p50_speedup, static_cast<long long>(cached_report.cache_hits),
              100.0 * cached_report.cache_hit_ratio);

  if (exporter != nullptr) {
    exporter->Stop();
    if (!live_out.empty()) std::printf("wrote %s\n", live_out.c_str());
    if (!prom_out.empty()) std::printf("wrote %s\n", prom_out.c_str());
  }
  if (access_log != nullptr) {
    std::printf("access log:      %lld queries -> %s\n",
                static_cast<long long>(access_log->lines()),
                access_path.c_str());
  }
  if (slo != nullptr) {
    std::printf("slo %s: %lld good, %lld bad, %lld alerts fired\n",
                slo->spec().ToString().c_str(),
                static_cast<long long>(slo->good()),
                static_cast<long long>(slo->bad()),
                static_cast<long long>(slo->alerts_fired()));
  }

  // The cached p50/p95 are microsecond cache lookups, too close to timer
  // noise to band; the cached mean carries the misses.
  out.Count("hot.queries", "queries", hot_events.value().size());
  out.Wall("hot.uncached.p50_ms", "ms", Better::kLower,
           uncached_report.total_ms.p50);
  out.Wall("hot.uncached.p95_ms", "ms", Better::kLower,
           uncached_report.total_ms.p95);
  out.Wall("hot.cached.mean_ms", "ms", Better::kLower,
           cached_report.total_ms.mean);
  out.Wall("hot.cached.hit_ratio", "ratio", Better::kHigher,
           cached_report.cache_hit_ratio);
  return out.Write();
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
