// Simulator fast-path microbench: wall-clock cost of the gpusim
// accounting layer and of the two shared-status traversal kernels whose
// inner loops dominate serving latency, plus an end-to-end serve-path p50
// under the BENCH_service.json conditions. Writes BENCH_gpusim.json.
//
// Sections:
//   accounting     tight BeginKernel/LoadContiguous/Compute/Atomic/End
//                  loop — ns per accounted call, the per-call overhead the
//                  batched entry points exist to avoid.
//   bitwise_sweep  Engine run, bitwise strategy (fused frontier sweep) —
//                  the ">= 2x wall-clock" target of the fast-path PR. The
//                  timed runs skip depth materialization (the serve-path
//                  configuration); an untimed depth-recording pass pins
//                  the checksum.
//   joint_sweep    Engine run, joint-traversal strategy, same scheme.
//   serve          open-loop poisson workload through BfsService (cache
//                  off): queue+batch+execute latency percentiles (p50 and
//                  p95 recorded; ~400 queries leave too few samples past
//                  p99 to band it).
//
// Every section also records simulation-identity fingerprints (depth
// checksums, transaction counts, simulated seconds) as exact `sim`/`count`
// metrics: a fast path that changes any of them is a broken fast path, and
// tools/check_bench.py fails the bench_smoke ctest on any drift vs the
// committed BENCH_gpusim.json. Wall-clock metrics are banded.
//
// Environment knobs (all optional, recorded in the artifact's config):
//   IBFS_GPUSIM_BENCH_SCALE      RMAT scale of the micro graphs (def 14)
//   IBFS_GPUSIM_BENCH_EDGES      RMAT edge factor (def 16)
//   IBFS_GPUSIM_BENCH_INSTANCES  BFS instances per engine run (def 256)
//   IBFS_GPUSIM_BENCH_GROUP      group size N (def 64)
//   IBFS_GPUSIM_BENCH_REPEATS    timed repetitions, best-of (def 3)
//   IBFS_GPUSIM_BENCH_QPS        serve-section offered load (def 400)
//   IBFS_GPUSIM_BENCH_DURATION   serve-section seconds (def 1.0)
//   IBFS_BENCH_OUT               output path (def BENCH_gpusim.json)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <string>
#include <vector>

#include "bench/common.h"
#include "gen/rmat.h"
#include "service/service.h"
#include "service/workload.h"
#include "util/checksum.h"

namespace ibfs::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepResult {
  double best_seconds = 0.0;
  double worst_seconds = 0.0;
  double sim_seconds = 0.0;
  uint64_t depth_checksum = 0;
  uint64_t load_transactions = 0;
  uint64_t store_transactions = 0;
  uint64_t atomic_ops = 0;
};

SweepResult RunSweep(const graph::Csr& graph,
                     std::span<const graph::VertexId> sources,
                     Strategy strategy, int group_size, int repeats) {
  // The timed loop runs keep_depths=false: what the fast path optimizes is
  // the traversal/accounting inner loops, and the serve path (the latency
  // consumer) runs without depth materialization too. Depth correctness is
  // still part of the fingerprint — a separate untimed keep_depths=true
  // pass below supplies the checksum that check_bench.py pins.
  EngineOptions options = BaseOptions(strategy, GroupingPolicy::kGroupBy);
  options.group_size = group_size;
  options.keep_depths = false;
  options.threads = 1;  // measure the kernel loops, not host parallelism
  SweepResult sweep;
  sweep.best_seconds = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double start = Now();
    const EngineResult result = MustRun(graph, options, sources);
    const double elapsed = Now() - start;
    sweep.best_seconds = std::min(sweep.best_seconds, elapsed);
    sweep.worst_seconds = std::max(sweep.worst_seconds, elapsed);
    if (r == 0) {
      sweep.sim_seconds = result.sim_seconds;
      sweep.load_transactions = result.totals.mem.load_transactions;
      sweep.store_transactions = result.totals.mem.store_transactions;
      sweep.atomic_ops = result.totals.mem.atomic_ops;
    } else {
      IBFS_CHECK(result.sim_seconds == sweep.sim_seconds &&
                 result.totals.mem.load_transactions ==
                     sweep.load_transactions)
          << "simulation not deterministic across repeats";
    }
  }
  // Untimed verification pass with depth recording on: the FNV checksum
  // over every group's depth vectors is the cross-binary identity witness
  // (bit-identical before/after the fast path, or the bench gate fails).
  options.keep_depths = true;
  const EngineResult verify = MustRun(graph, options, sources);
  uint64_t state = kFnv1aOffsetBasis;
  for (const GroupResult& group : verify.groups) {
    for (const std::vector<uint8_t>& depths : group.depths) {
      state = Fnv1aExtend(state, depths);
    }
  }
  sweep.depth_checksum = state;
  return sweep;
}

struct AccountingResult {
  double seconds = 0.0;
  int64_t calls = 0;
  double ns_per_call = 0.0;
  double sim_seconds = 0.0;
  uint64_t load_transactions = 0;
};

// The accounting layer in isolation: kernels that only account (no graph
// work), shaped like a bottom-up inner loop — one small contiguous row
// load plus a word's worth of compute per "neighbor".
AccountingResult RunAccounting() {
  constexpr int kKernels = 2000;
  constexpr int kCallsPerKernel = 2000;
  gpusim::Device device;
  const double start = Now();
  for (int k = 0; k < kKernels; ++k) {
    auto scope = device.BeginKernel(k % 2 == 0 ? "td_inspect" : "bu_inspect");
    scope.BeginItem();
    for (int c = 0; c < kCallsPerKernel; ++c) {
      scope.LoadContiguous(static_cast<int64_t>(c) * 3, 2, 8);
      scope.Compute(2);
      scope.SharedBytes(16);
      if ((c & 15) == 0) scope.Atomic(1);
    }
    scope.EndItem();
  }
  AccountingResult result;
  result.seconds = Now() - start;
  result.calls = int64_t{kKernels} * kCallsPerKernel * 4;
  result.ns_per_call = result.seconds * 1e9 / result.calls;
  result.sim_seconds = device.elapsed_seconds();
  result.load_transactions = device.totals().mem.load_transactions;
  return result;
}

struct ServeResult {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double achieved_qps = 0.0;
  int64_t completed = 0;
  uint64_t checksum = 0;
};

ServeResult RunServe(const graph::Csr& graph, double qps,
                     double duration_s) {
  service::WorkloadOptions workload;
  workload.arrival = service::ArrivalProcess::kPoisson;
  workload.qps = qps;
  workload.duration_s = duration_s;
  workload.seed = 2016;
  auto events = service::GenerateArrivals(graph, workload);
  IBFS_CHECK(events.ok()) << events.status().ToString();

  service::ServiceOptions options;
  options.max_batch = 64;
  options.max_delay_ms = 2.0;
  options.execute_threads = 2;
  options.keep_depths = false;
  options.cache.enabled = false;  // measure execution, not cache hits
  options.engine = BaseOptions(Strategy::kBitwise, GroupingPolicy::kGroupBy);
  auto svc = service::BfsService::Create(&graph, options);
  IBFS_CHECK(svc.ok()) << svc.status().ToString();
  auto drive = service::DriveWorkload(svc.value().get(), events.value());
  IBFS_CHECK(drive.ok()) << drive.status().ToString();

  ServeResult serve;
  std::vector<double> totals;
  uint64_t state = kFnv1aOffsetBasis;
  for (const auto& query : drive.value().results) {
    IBFS_CHECK(query.status.ok()) << query.status.ToString();
    totals.push_back(query.latency.total_ms);
    const uint64_t checksum = query.depth_checksum;
    state = Fnv1aExtend(
        state, {reinterpret_cast<const uint8_t*>(&checksum),
                sizeof(checksum)});
  }
  serve.checksum = state;
  serve.completed = static_cast<int64_t>(totals.size());
  std::sort(totals.begin(), totals.end());
  const auto pct = [&totals](double p) {
    if (totals.empty()) return 0.0;
    const size_t index = static_cast<size_t>(
        p * static_cast<double>(totals.size() - 1));
    return totals[index];
  };
  serve.p50_ms = pct(0.50);
  serve.p95_ms = pct(0.95);
  serve.p99_ms = pct(0.99);
  serve.achieved_qps =
      drive.value().wall_seconds > 0.0
          ? static_cast<double>(totals.size()) / drive.value().wall_seconds
          : 0.0;
  return serve;
}

void RecordSweep(BenchArtifact* out, const std::string& section,
                 const SweepResult& sweep) {
  out->Wall(section + ".wall_seconds_best", "s", Better::kLower,
            sweep.best_seconds, sweep.worst_seconds - sweep.best_seconds);
  out->Sim(section + ".sim_seconds", "s", sweep.sim_seconds);
  out->Count(section + ".depth_checksum", "fnv1a", sweep.depth_checksum);
  out->Count(section + ".load_transactions", "txn", sweep.load_transactions);
  out->Count(section + ".store_transactions", "txn",
             sweep.store_transactions);
  out->Count(section + ".atomic_ops", "ops", sweep.atomic_ops);
}

int Main() {
  PrintHeader("gpusim fast path",
              "accounting overhead + traversal-kernel wall clock + serve "
              "p50");
  BenchArtifact out("gpusim");
  const int scale = static_cast<int>(out.Int("IBFS_GPUSIM_BENCH_SCALE", 14));
  const int edge_factor =
      static_cast<int>(out.Int("IBFS_GPUSIM_BENCH_EDGES", 16));
  const int64_t instances = out.Int("IBFS_GPUSIM_BENCH_INSTANCES", 256);
  const int group_size =
      static_cast<int>(out.Int("IBFS_GPUSIM_BENCH_GROUP", 64));
  const int repeats =
      static_cast<int>(out.Int("IBFS_GPUSIM_BENCH_REPEATS", 3));
  const double qps = out.Double("IBFS_GPUSIM_BENCH_QPS", 400.0);
  const double duration_s = out.Double("IBFS_GPUSIM_BENCH_DURATION", 1.0);
  out.set_repeats(repeats);

  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  params.seed = 42;
  auto generated = gen::GenerateRmat(params);
  IBFS_CHECK(generated.ok()) << generated.status().ToString();
  const graph::Csr graph = std::move(generated).value();
  const std::vector<graph::VertexId> sources = Sources(graph, instances);

  const AccountingResult accounting = RunAccounting();
  std::printf("accounting:    %7.3f s for %lld calls (%.1f ns/call)\n",
              accounting.seconds,
              static_cast<long long>(accounting.calls),
              accounting.ns_per_call);
  out.Wall("accounting.seconds", "s", Better::kLower, accounting.seconds);
  out.Sim("accounting.sim_seconds", "s", accounting.sim_seconds);
  out.Count("accounting.load_transactions", "txn",
            accounting.load_transactions);

  const SweepResult bitwise =
      RunSweep(graph, sources, Strategy::kBitwise, group_size, repeats);
  std::printf("bitwise sweep: %7.3f s best of %d (sim %.6f s, checksum "
              "%016" PRIx64 ")\n",
              bitwise.best_seconds, repeats, bitwise.sim_seconds,
              bitwise.depth_checksum);
  RecordSweep(&out, "bitwise_sweep", bitwise);

  const SweepResult joint =
      RunSweep(graph, sources, Strategy::kJointTraversal, group_size,
               repeats);
  std::printf("joint sweep:   %7.3f s best of %d (sim %.6f s, checksum "
              "%016" PRIx64 ")\n",
              joint.best_seconds, repeats, joint.sim_seconds,
              joint.depth_checksum);
  RecordSweep(&out, "joint_sweep", joint);

  const ServeResult serve = RunServe(graph, qps, duration_s);
  std::printf("serve:         p50 %.3f ms  p95 %.3f ms  p99 %.3f ms "
              "(%lld queries)\n",
              serve.p50_ms, serve.p95_ms, serve.p99_ms,
              static_cast<long long>(serve.completed));
  out.Wall("serve.p50_ms", "ms", Better::kLower, serve.p50_ms);
  out.Wall("serve.p95_ms", "ms", Better::kLower, serve.p95_ms);
  out.Wall("serve.achieved_qps", "qps", Better::kHigher, serve.achieved_qps);
  out.Count("serve.completed", "queries",
            static_cast<uint64_t>(serve.completed));
  out.Count("serve.checksum", "fnv1a", serve.checksum);
  return out.Write();
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
