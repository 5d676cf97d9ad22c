// Batch workloads: one job answers BFS from every source at once, the
// paper's offline use (APSP, centrality, reachability).
//
//   offline-lj         Engine::Run on LJ, GroupBy + bitwise, all cores.
//   partitioned-lj-p4  RunPartitioned on LJ over 4 simulated devices.
//
// A job is one pass; p50_ms is the median pass latency, host_teps is
// instances x |E| over the median pass's CPU seconds, and capacity_qps is
// the answer rate of the median pass (a job has every source in flight at
// once).
#include <optional>
#include <thread>

#include "core/cluster_engine.h"
#include "core/engine.h"
#include "core/group_plan.h"
#include "gpusim/device.h"
#include "graph/components.h"
#include "harness.h"
#include "util/checksum.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kGroupSize = 64;
// A job runs at least this many passes, even past --seconds.
constexpr int kMinPasses = 3;
constexpr int kDecompositionReps = 3;

ibfs::EngineOptions BatchOptions(const Args& args) {
  ibfs::EngineOptions options;
  options.strategy = ibfs::Strategy::kBitwise;
  options.grouping = ibfs::GroupingPolicy::kGroupBy;
  options.group_size = kGroupSize;
  options.keep_depths = true;
  // Per-instance frontier counts feed plan.sharing_ratio; they cost host
  // time, so only the traced run (on every pass, traced or not) pays it.
  options.traversal.collect_instance_stats = args.trace;
  options.threads = static_cast<int>(std::thread::hardware_concurrency());
  return options;
}

/// Checks every answer of `groups` against the reference.
void CheckEveryAnswer(const std::vector<ibfs::GroupResult>& groups,
                      const std::vector<std::vector<VertexId>>& sources,
                      Checker* checker) {
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t k = 0; k < groups[g].depths.size(); ++k) {
      checker->Check(sources[g][k], ibfs::Fnv1a(groups[g].depths[k]));
    }
  }
}

/// Drops the depth vectors of a result once they have been checked.
void DropDepths(std::vector<ibfs::GroupResult>* groups) {
  for (ibfs::GroupResult& group : *groups) group.depths = {};
}

/// Answers of a job: checked one by one against the reference, or as a
/// whole pass against the golden whole-run checksum (whose answers were
/// all checked one by one).
struct Tally {
  explicit Tally(const ReferenceAnswers* refs) : checker(refs) {}
  Checker checker;
  int64_t by_golden = 0;
};

/// Checks one pass: a whole-run checksum equal to the golden one vouches
/// for every answer; otherwise each answer is checked on its own, so the
/// wrong ones are counted exactly.
void CheckPass(const std::vector<ibfs::GroupResult>& groups,
               const std::vector<std::vector<VertexId>>& sources,
               uint64_t golden_sum, Tally* tally) {
  if (ibfs::DepthChecksum(groups) == golden_sum) {
    for (const auto& group : sources) {
      tally->by_golden += static_cast<int64_t>(group.size());
    }
    return;
  }
  CheckEveryAnswer(groups, sources, &tally->checker);
}

/// Timing of one pass: host wall seconds and process CPU seconds.
struct PassTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Times one call.
template <typename Call>
PassTime Timed(Call call) {
  const Clock::time_point start = Clock::now();
  const double cpu = ProcessCpuSeconds();
  call();
  return {Seconds(start, Clock::now()), ProcessCpuSeconds() - cpu};
}

/// Pass timings of one job, split by whether the pass was traced.
struct Passes {
  std::vector<double> plain_s;
  std::vector<double> plain_cpu_s;
  std::vector<double> traced_s;
};

/// Runs `pass` until --seconds is spent (at least kMinPasses plain passes).
/// A traced run alternates plain and traced passes so both see the same
/// machine; `pass(traced)` returns the timing of its library call.
template <typename Pass>
Passes RunPasses(const Args& args, Pass pass) {
  Passes passes;
  const Clock::time_point start = Clock::now();
  bool traced = false;
  while (Seconds(start, Clock::now()) < args.seconds ||
         static_cast<int>(passes.plain_s.size()) < kMinPasses ||
         (args.trace && static_cast<int>(passes.traced_s.size()) < kMinPasses)) {
    const PassTime t = pass(traced);
    if (traced) {
      passes.traced_s.push_back(t.wall_s);
    } else {
      passes.plain_s.push_back(t.wall_s);
      passes.plain_cpu_s.push_back(t.cpu_s);
    }
    if (args.trace) traced = !traced;
  }
  return passes;
}

/// host_teps is on CPU seconds, not wall: the pass's work per host CPU
/// second, which steal on a shared host does not move. The wall clock of
/// a pass is what p50_ms reports.
void ReportJob(const Args& args, const Passes& passes, int64_t instances,
               int64_t edges, double sim_teps, Report* report) {
  const double median_s = Median(passes.plain_s);
  std::vector<double> ms;
  for (double s : passes.plain_s) ms.push_back(s * 1e3);
  report->EndToEnd("host_teps", Ratio(static_cast<double>(instances) *
                                          static_cast<double>(edges),
                                      Median(passes.plain_cpu_s)));
  report->EndToEnd("sim_teps", sim_teps);
  report->EndToEnd("p50_ms", Percentile(ms, 50));
  report->EndToEnd("capacity_qps",
                   Ratio(static_cast<double>(instances), median_s));
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  report->Note("passes", static_cast<double>(passes.plain_s.size()));
  if (args.trace) {
    report->Layer("obs.trace_overhead_ratio",
                  Ratio(Median(passes.traced_s), median_s) - 1.0);
    report->Layer("driver.latency_p90_ms", Percentile(ms, 90));
    report->Layer("driver.latency_p99_ms", Percentile(ms, 99));
  }
}

void FinishOutcome(const Tally& tally, Report* report) {
  report->attempted = tally.checker.checked() + tally.by_golden;
  report->failed = tally.checker.mismatches();
  report->Layer("error_ratio", Ratio(static_cast<double>(report->failed),
                                     static_cast<double>(report->attempted)));
  if (report->failed > 0) report->correct = false;
}

}  // namespace

void RunOfflineLj(const Args& args, Report* report) {
  // LJ at +2 (32,768 vertices, 784 k edges) with 1,024 sources: one
  // set-up (graph + 1,024 reference BFS) takes under a second on 4 cores
  // and the kept depth vectors 32 MiB. At +3 its timings followed the
  // host's load more closely: in five seeds run alternately on the two
  // sizes, p50_ms spread 0.22 there against 0.05 here.
  constexpr int kScaleDelta = 2;
  constexpr int64_t kInstances = 1024;
  Workbench bench = SetUp(
      args, ibfs::gen::BenchmarkId::kLJ, kScaleDelta,
      [&](const ibfs::graph::Csr& g) {
        return ibfs::graph::SampleConnectedSources(g, kInstances, args.seed);
      },
      report);
  if (args.corrupt_expected) bench.refs.Corrupt(bench.sources.front());
  SpanLog spans(args.trace);
  Tally tally(&bench.refs);
  ibfs::EngineOptions options = BatchOptions(args);

  // Golden: the single-device serial engine, every answer checked against
  // the reference BFS. Each measured pass must reproduce its whole-run
  // depth checksum.
  ibfs::EngineOptions serial_options = options;
  serial_options.threads = 1;
  const ibfs::Engine serial(&bench.graph, serial_options);
  auto golden = serial.Run(bench.sources);
  IBFS_CHECK(golden.ok()) << golden.status().ToString();
  CheckEveryAnswer(golden.value().groups, golden.value().group_sources,
                   &tally.checker);
  const uint64_t golden_sum = ibfs::DepthChecksum(golden.value().groups);
  DropDepths(&golden.value().groups);

  const ibfs::Engine engine(&bench.graph, options);
  const Passes passes = RunPasses(args, [&](bool traced) {
    std::optional<ibfs::Result<ibfs::EngineResult>> result;
    const Clock::time_point start = Clock::now();
    const PassTime t = Timed([&] { result.emplace(engine.Run(bench.sources)); });
    IBFS_CHECK(result->ok()) << result->status().ToString();
    if (traced) spans.Add("engine.run", start, Clock::now(), 1);
    CheckPass(result->value().groups, result->value().group_sources,
              golden_sum, &tally);
    return t;
  });
  const ibfs::EngineResult& gold = golden.value();
  ReportJob(args, passes, kInstances, bench.graph.edge_count(), gold.teps,
            report);

  if (args.trace) {
    // Layer decomposition of the serial engine: Engine::Run, then its plan
    // and each group's execution called one by one through the public API.
    // What Engine::Run spends outside them is the engine's own time; it is
    // a small difference of large spans, so it is the median of
    // kDecompositionReps alternated repetitions.
    std::vector<double> self_ms;
    std::vector<double> plan_ms;
    std::vector<double> group_ms;
    double group_s = 0.0;
    ibfs::EngineResult decomposed;
    ibfs::gpusim::KernelStats totals;
    ibfs::gpusim::PhaseMap phases;
    size_t group_count = 0;
    int64_t rule_matched = 0;
    for (int rep = 0; rep < kDecompositionReps; ++rep) {
      const Clock::time_point run_start = Clock::now();
      auto run = serial.Run(bench.sources);
      const Clock::time_point run_end = Clock::now();
      IBFS_CHECK(run.ok()) << run.status().ToString();
      spans.Add("engine.run.serial", run_start, run_end, 2);
      CheckPass(run.value().groups, run.value().group_sources, golden_sum,
                &tally);
      run = ibfs::EngineResult{};  // free its depths before the next calls

      const Clock::time_point plan_start = Clock::now();
      auto plan = ibfs::GroupSources(bench.graph, bench.sources, serial_options);
      const Clock::time_point plan_end = Clock::now();
      IBFS_CHECK(plan.ok()) << plan.status().ToString();
      spans.Add("plan", plan_start, plan_end, 2);
      group_count = plan.value().grouping.groups.size();
      rule_matched = plan.value().grouping.rule_matched;

      double rep_group_s = 0.0;
      group_ms.clear();
      decomposed = {};
      totals = {};
      phases.clear();
      for (const auto& group : plan.value().grouping.groups) {
        ibfs::gpusim::Device device(serial_options.device);
        const Clock::time_point start = Clock::now();
        auto result = serial.ExecuteGroup(group, &device, {});
        const Clock::time_point end = Clock::now();
        IBFS_CHECK(result.ok()) << result.status().ToString();
        spans.Add("group", start, end, 2);
        group_ms.push_back(Ms(start, end));
        rep_group_s += Seconds(start, end);
        totals.Add(device.totals());
        for (const auto& [tag, stats] : device.phases()) phases[tag].Add(stats);
        for (size_t k = 0; k < group.size(); ++k) {
          tally.checker.Check(group[k], ibfs::Fnv1a(result.value().depths[k]));
        }
        result.value().depths = {};
        decomposed.groups.push_back(std::move(result).value());
      }
      group_s = rep_group_s;
      plan_ms.push_back(Ms(plan_start, plan_end));
      self_ms.push_back(Ms(run_start, run_end) - Ms(plan_start, plan_end) -
                        rep_group_s * 1e3);
    }
    const auto phase_s = [&phases](std::string_view tag) {
      auto it = phases.find(tag);
      return it == phases.end() ? 0.0 : it->second.seconds;
    };
    const auto& mem = totals.mem;
    report->Layer("plan.group_sources_ms", Median(plan_ms));
    report->Layer("plan.groups", static_cast<double>(group_count));
    report->Layer("plan.rule_matched_ratio",
                  Ratio(static_cast<double>(rule_matched),
                        static_cast<double>(kInstances)));
    report->Layer("plan.sharing_ratio", decomposed.SharingRatio());
    report->Layer("ibfs.group_host_ms.p50", Percentile(group_ms, 50));
    report->Layer("ibfs.group_host_ms.p99", Percentile(group_ms, 99));
    report->Layer("gpusim.sim_s.td_inspect", phase_s("td_inspect"));
    report->Layer("gpusim.sim_s.bu_inspect", phase_s("bu_inspect"));
    report->Layer("gpusim.sim_s.fq_gen", phase_s("fq_gen"));
    report->Layer("gpusim.load_txn", static_cast<double>(mem.load_transactions));
    report->Layer("gpusim.store_txn",
                  static_cast<double>(mem.store_transactions));
    report->Layer("gpusim.atomics", static_cast<double>(mem.atomic_ops));
    report->Layer("gpusim.host_ns_per_txn",
                  Ratio(group_s * 1e9, static_cast<double>(
                                           mem.load_transactions +
                                           mem.store_transactions)));
    report->Layer("engine.self_ms", Median(self_ms));
    spans.Write(args.trace_out);
  }
  FinishOutcome(tally, report);
}

void RunPartitionedLjP4(const Args& args, Report* report) {
  // LJ at +2 (32,768 vertices, 784 k edges), P = 4 under the ring
  // all-gather: the only workload through graph::partition, the
  // partitioned level loop and the gpusim comm model. 128 sources (two
  // groups) keep a pass near 0.2 s, so a run times ~60 passes.
  constexpr int kScaleDelta = 2;
  constexpr int64_t kInstances = 128;
  constexpr int kPartitions = 4;
  Workbench bench = SetUp(
      args, ibfs::gen::BenchmarkId::kLJ, kScaleDelta,
      [&](const ibfs::graph::Csr& g) {
        return ibfs::graph::SampleConnectedSources(g, kInstances, args.seed);
      },
      report);
  if (args.corrupt_expected) bench.refs.Corrupt(bench.sources.front());
  SpanLog spans(args.trace);
  Tally tally(&bench.refs);
  ibfs::EngineOptions options = BatchOptions(args);
  options.traversal.collect_instance_stats = false;

  // Golden: the unpartitioned single-device engine, every answer checked.
  ibfs::EngineOptions serial_options = options;
  serial_options.threads = 1;
  auto golden = ibfs::Engine(&bench.graph, serial_options).Run(bench.sources);
  IBFS_CHECK(golden.ok()) << golden.status().ToString();
  CheckEveryAnswer(golden.value().groups, golden.value().group_sources,
                   &tally.checker);
  const uint64_t golden_sum = ibfs::DepthChecksum(golden.value().groups);
  DropDepths(&golden.value().groups);

  ibfs::PartitionRunOptions run;
  run.partitions = kPartitions;
  run.schedule = ibfs::gpusim::CommSchedule::kAllGather;
  ibfs::PartitionedRunResult last;
  const Passes passes = RunPasses(args, [&](bool traced) {
    std::optional<ibfs::Result<ibfs::PartitionedRunResult>> result;
    const Clock::time_point start = Clock::now();
    const PassTime t = Timed([&] {
      result.emplace(
          ibfs::RunPartitioned(bench.graph, bench.sources, options, run));
    });
    IBFS_CHECK(result->ok()) << result->status().ToString();
    if (traced) spans.Add("partitioned.pass", start, Clock::now(), 1);
    CheckPass(result->value().groups, result->value().group_sources,
              golden_sum, &tally);
    last = std::move(*result).value();
    last.groups.clear();
    return t;
  });
  ReportJob(args, passes, kInstances, bench.graph.edge_count(), last.teps,
            report);

  if (args.trace) {
    ibfs::PartitionRunOptions single = run;
    single.partitions = 1;
    auto p1 = ibfs::RunPartitioned(bench.graph, bench.sources, options, single);
    IBFS_CHECK(p1.ok()) << p1.status().ToString();
    const auto& mem = last.totals.mem;
    report->Layer("part.compute_sim_s", last.compute_seconds);
    report->Layer("part.comm_sim_s", last.comm_seconds);
    report->Layer("part.bytes_on_wire", static_cast<double>(last.bytes_on_wire));
    report->Layer("part.rounds", static_cast<double>(last.comm_rounds));
    report->Layer("part.supersteps", static_cast<double>(last.supersteps));
    report->Layer("part.edge_imbalance", last.edge_imbalance);
    report->Layer("part.host_s_per_superstep",
                  Ratio(Median(passes.plain_s),
                        static_cast<double>(last.supersteps)));
    report->Layer("part.p1_vs_engine_sim_ratio",
                  Ratio(p1.value().sim_seconds, golden.value().sim_seconds));
    report->Layer("gpusim.load_txn", static_cast<double>(mem.load_transactions));
    report->Layer("gpusim.store_txn",
                  static_cast<double>(mem.store_transactions));
    report->Layer("gpusim.atomics", static_cast<double>(mem.atomic_ops));
    report->Layer("gpusim.host_ns_per_txn",
                  Ratio(Median(passes.plain_s) * 1e9,
                        static_cast<double>(mem.load_transactions +
                                            mem.store_transactions)));
    report->Layer("plan.groups", static_cast<double>(last.group_sources.size()));
    spans.Write(args.trace_out);
  }
  FinishOutcome(tally, report);
}

}  // namespace perfbench
