#include "graph/partition.h"

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster_engine.h"
#include "core/engine.h"
#include "gpusim/memory_model.h"
#include "graph/components.h"
#include "gtest/gtest.h"
#include "ibfs/runner.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace ibfs {
namespace {

using graph::VertexId;

// ---------------------------------------------------------------------------
// PartitionByEdges1D

TEST(PartitionTest, CoversAllVerticesAndEdges) {
  const graph::Csr g = testing::MakeRmatGraph(8, 8);
  for (int partitions : {1, 2, 3, 4, 7, 8}) {
    auto parted = graph::PartitionByEdges1D(g, partitions);
    ASSERT_TRUE(parted.ok()) << parted.status().ToString();
    const graph::Partitioning& p = parted.value();
    ASSERT_EQ(p.partition_count(), partitions);

    VertexId cursor = 0;
    int64_t edge_sum = 0;
    for (const graph::GraphPartition& part : p.parts) {
      EXPECT_EQ(part.range.begin, cursor);
      EXPECT_GT(part.range.size(), 0);
      edge_sum += part.edges;
      cursor = part.range.end;
    }
    EXPECT_EQ(static_cast<int64_t>(cursor), g.vertex_count());
    EXPECT_EQ(edge_sum, g.edge_count());
    EXPECT_EQ(p.total_edges, g.edge_count());
  }
}

TEST(PartitionTest, OwnerOfAgreesWithRanges) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  auto parted = graph::PartitionByEdges1D(g, 5);
  ASSERT_TRUE(parted.ok());
  const graph::Partitioning& p = parted.value();
  for (VertexId v = 0; v < static_cast<VertexId>(g.vertex_count()); ++v) {
    const int owner = p.OwnerOf(v);
    EXPECT_TRUE(p.parts[static_cast<size_t>(owner)].range.Contains(v));
  }
}

TEST(PartitionTest, DeterministicAndBalanced) {
  const graph::Csr g = testing::MakeRmatGraph(8, 8);
  auto a = graph::PartitionByEdges1D(g, 4);
  auto b = graph::PartitionByEdges1D(g, 4);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().range_ends, b.value().range_ends);
  // Greedy prefix cut: the heaviest partition stays within one vertex's
  // degree of the ideal share. On this power-law graph that bounds the
  // imbalance well below 2x.
  EXPECT_GE(a.value().EdgeImbalance(), 1.0);
  EXPECT_LT(a.value().EdgeImbalance(), 2.0);
}

TEST(PartitionTest, RejectsBadPartitionCounts) {
  const graph::Csr g = testing::MakeSmallGraph();  // 9 vertices
  EXPECT_FALSE(graph::PartitionByEdges1D(g, 0).ok());
  EXPECT_FALSE(graph::PartitionByEdges1D(g, -1).ok());
  EXPECT_FALSE(graph::PartitionByEdges1D(g, 10).ok());
  EXPECT_TRUE(graph::PartitionByEdges1D(g, 9).ok());
}

// ---------------------------------------------------------------------------
// FrontierExchangeCost

TEST(CommCostTest, SingleParticipantIsFree) {
  const gpusim::LinkSpec link;
  for (auto schedule :
       {gpusim::CommSchedule::kAllGather, gpusim::CommSchedule::kButterfly}) {
    const auto cost = gpusim::FrontierExchangeCost(schedule, 1, 4096, link);
    EXPECT_EQ(cost.seconds, 0.0);
    EXPECT_EQ(cost.bytes_on_wire, 0);
    EXPECT_EQ(cost.rounds, 0);
  }
}

TEST(CommCostTest, BytesAndRoundsFollowTheModel) {
  const gpusim::LinkSpec link{10.0, 5.0};
  const int64_t bytes = 1 << 20;
  for (int p : {2, 3, 4, 8, 16}) {
    const auto ag = gpusim::FrontierExchangeCost(
        gpusim::CommSchedule::kAllGather, p, bytes, link);
    const auto bf = gpusim::FrontierExchangeCost(
        gpusim::CommSchedule::kButterfly, p, bytes, link);
    // Both schedules move every slice to every rank.
    EXPECT_EQ(ag.bytes_on_wire, static_cast<int64_t>(p) * (p - 1) * bytes);
    EXPECT_EQ(bf.bytes_on_wire, ag.bytes_on_wire);
    EXPECT_EQ(ag.rounds, p - 1);
    int64_t log2p = 0;
    for (int64_t reach = 1; reach < p; reach <<= 1) ++log2p;
    EXPECT_EQ(bf.rounds, log2p);
  }
}

TEST(CommCostTest, ButterflyBeatsRingPastTwoRanks) {
  const gpusim::LinkSpec link{12.0, 5.0};
  const int64_t bytes = 64 * 1024;
  const auto ag2 = gpusim::FrontierExchangeCost(
      gpusim::CommSchedule::kAllGather, 2, bytes, link);
  const auto bf2 = gpusim::FrontierExchangeCost(
      gpusim::CommSchedule::kButterfly, 2, bytes, link);
  EXPECT_DOUBLE_EQ(ag2.seconds, bf2.seconds);  // 1 round either way
  for (int p : {4, 8, 16}) {
    const auto ag = gpusim::FrontierExchangeCost(
        gpusim::CommSchedule::kAllGather, p, bytes, link);
    const auto bf = gpusim::FrontierExchangeCost(
        gpusim::CommSchedule::kButterfly, p, bytes, link);
    EXPECT_LT(bf.seconds, ag.seconds) << "P=" << p;
  }
}

// ---------------------------------------------------------------------------
// RunPartitioned parity with the unpartitioned engine

EngineOptions ParityOptions(Strategy strategy) {
  EngineOptions options;
  options.strategy = strategy;
  options.grouping = GroupingPolicy::kGroupBy;
  options.group_size = 16;
  options.traversal.collect_instance_stats = false;
  return options;
}

TEST(RunPartitionedTest, DepthsMatchEngineAcrossPartitionsAndStrategies) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 48, 1);
  for (Strategy strategy :
       {Strategy::kSequential, Strategy::kNaiveConcurrent,
        Strategy::kJointTraversal, Strategy::kBitwise}) {
    const EngineOptions options = ParityOptions(strategy);
    Engine engine(&g, options);
    auto baseline = engine.Run(sources);
    ASSERT_TRUE(baseline.ok());
    const uint64_t expected = DepthChecksum(baseline.value().groups);
    for (int partitions : {1, 2, 4, 8}) {
      PartitionRunOptions prun;
      prun.partitions = partitions;
      auto result = RunPartitioned(g, sources, options, prun);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result.value().groups.size(), baseline.value().groups.size());
      EXPECT_EQ(DepthChecksum(result.value().groups), expected)
          << StrategyName(strategy) << " P=" << partitions;
    }
  }
}

TEST(RunPartitionedTest, ScheduleAndThreadsDoNotChangeDepths) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 32, 3);
  for (Strategy strategy :
       {Strategy::kSequential, Strategy::kNaiveConcurrent,
        Strategy::kJointTraversal, Strategy::kBitwise}) {
    SCOPED_TRACE(StrategyName(strategy));
    EngineOptions options = ParityOptions(strategy);
    PartitionRunOptions prun;
    prun.partitions = 4;
    auto base = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(base.ok());
    const uint64_t expected = DepthChecksum(base.value().groups);
    const gpusim::MemCounters& want = base.value().totals.mem;
    for (auto schedule :
         {gpusim::CommSchedule::kAllGather, gpusim::CommSchedule::kButterfly}) {
      for (int threads : {1, 4}) {
        EngineOptions opts = options;
        opts.threads = threads;
        PartitionRunOptions p = prun;
        p.schedule = schedule;
        auto result = RunPartitioned(g, sources, opts, p);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(DepthChecksum(result.value().groups), expected);
        // The schedule shapes time, never answers or kernel work: compute
        // and every counter match exactly.
        EXPECT_EQ(result.value().compute_seconds,
                  base.value().compute_seconds);
        const gpusim::MemCounters& got = result.value().totals.mem;
        EXPECT_EQ(got.load_transactions, want.load_transactions);
        EXPECT_EQ(got.store_transactions, want.store_transactions);
        EXPECT_EQ(got.atomic_ops, want.atomic_ops);
        EXPECT_EQ(got.shared_bytes, want.shared_bytes);
      }
    }
  }
}

// At P = 1 the partitioned run is the engine's run: the same level
// program over the view [0, V) on one device, with nothing to exchange.
TEST(RunPartitionedTest, P1EqualsEngineExactly) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 48, 1);
  for (Strategy strategy :
       {Strategy::kSequential, Strategy::kNaiveConcurrent,
        Strategy::kJointTraversal, Strategy::kBitwise}) {
    SCOPED_TRACE(StrategyName(strategy));
    const EngineOptions options = ParityOptions(strategy);
    auto engine = Engine(&g, options).Run(sources);
    ASSERT_TRUE(engine.ok());
    PartitionRunOptions prun;
    prun.partitions = 1;
    auto part = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    const EngineResult& want = engine.value();
    const PartitionedRunResult& got = part.value();
    EXPECT_EQ(got.sim_seconds, want.sim_seconds);
    EXPECT_EQ(got.compute_seconds, want.sim_seconds);
    EXPECT_EQ(got.comm_seconds, 0.0);
    EXPECT_EQ(got.bytes_on_wire, 0);
    EXPECT_EQ(got.totals.seconds, want.totals.seconds);
    EXPECT_EQ(got.totals.mem.load_transactions,
              want.totals.mem.load_transactions);
    EXPECT_EQ(got.totals.mem.store_transactions,
              want.totals.mem.store_transactions);
    EXPECT_EQ(got.totals.mem.atomic_ops, want.totals.mem.atomic_ops);
    EXPECT_EQ(got.totals.launch_count, want.totals.launch_count);
    ASSERT_EQ(got.phases.size(), want.phases.size());
    for (const auto& [phase, stats] : want.phases) {
      ASSERT_TRUE(got.phases.count(phase)) << phase;
      EXPECT_EQ(got.phases.at(phase).seconds, stats.seconds) << phase;
    }
    EXPECT_EQ(DepthChecksum(got.groups), DepthChecksum(want.groups));
  }
}

// The partitioned cost follows the strategy: its kernels set the compute
// time, and its state sets what each exchange ships.
TEST(RunPartitionedTest, StrategyShapesCostAndComm) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 16, 1);
  PartitionRunOptions prun;
  prun.partitions = 4;
  std::map<Strategy, PartitionedRunResult> runs;
  for (Strategy strategy :
       {Strategy::kSequential, Strategy::kNaiveConcurrent,
        Strategy::kJointTraversal, Strategy::kBitwise}) {
    EngineOptions options = ParityOptions(strategy);
    options.group_size = 16;  // one group of 16 < 64 sources
    auto run = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run.value().groups.size(), 1u);
    runs.emplace(strategy, std::move(run).value());
  }
  const PartitionedRunResult& bitwise = runs.at(Strategy::kBitwise);
  const PartitionedRunResult& sequential = runs.at(Strategy::kSequential);
  const PartitionedRunResult& naive = runs.at(Strategy::kNaiveConcurrent);
  const PartitionedRunResult& joint = runs.at(Strategy::kJointTraversal);
  EXPECT_NE(bitwise.compute_seconds, sequential.compute_seconds);
  EXPECT_LT(bitwise.compute_seconds, sequential.compute_seconds);
  // Bitwise ships one 8-byte BSA word per owned vertex, joint one JSA byte
  // per instance (16), naive one bit per instance: all differ below 64.
  EXPECT_NE(bitwise.bytes_on_wire, naive.bytes_on_wire);
  EXPECT_NE(bitwise.bytes_on_wire, joint.bytes_on_wire);
  EXPECT_NE(joint.bytes_on_wire, naive.bytes_on_wire);
  // Sequential exchanges once per instance level.
  EXPECT_GT(sequential.supersteps, bitwise.supersteps);
}

TEST(RunPartitionedTest, CommGrowsWithPartitionsAndButterflyWins) {
  const graph::Csr g = testing::MakeRmatGraph(8, 8);
  const auto sources = graph::SampleConnectedSources(g, 64, 1);
  const EngineOptions options = ParityOptions(Strategy::kBitwise);
  double last_comm = -1.0;
  for (int partitions : {1, 2, 4, 8}) {
    PartitionRunOptions prun;
    prun.partitions = partitions;
    auto ag = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(ag.ok());
    EXPECT_GT(ag.value().comm_seconds, last_comm);
    last_comm = ag.value().comm_seconds;
    if (partitions == 1) {
      EXPECT_EQ(ag.value().comm_seconds, 0.0);
      EXPECT_EQ(ag.value().bytes_on_wire, 0);
      continue;
    }
    prun.schedule = gpusim::CommSchedule::kButterfly;
    auto bf = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(bf.ok());
    EXPECT_EQ(bf.value().bytes_on_wire, ag.value().bytes_on_wire);
    if (partitions >= 4) {
      EXPECT_LT(bf.value().comm_seconds, ag.value().comm_seconds);
    }
  }
}

TEST(RunPartitionedTest, MaxLevelTruncatesLikeTheEngine) {
  const graph::Csr g = testing::MakeRmatGraph(7, 4);
  const auto sources = graph::SampleConnectedSources(g, 16, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  options.traversal.max_level = 2;
  Engine engine(&g, options);
  auto baseline = engine.Run(sources);
  ASSERT_TRUE(baseline.ok());
  PartitionRunOptions prun;
  prun.partitions = 4;
  auto result = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(DepthChecksum(result.value().groups),
            DepthChecksum(baseline.value().groups));
}

TEST(RunPartitionedTest, ParityHoldsUnderFaultInjection) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 32, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  Engine engine(&g, options);
  auto baseline = engine.Run(sources);
  ASSERT_TRUE(baseline.ok());
  const uint64_t expected = DepthChecksum(baseline.value().groups);

  auto plan = gpusim::FaultPlan::Parse(
      "seed=11,devices=4,p_fail=0.02,corrupt=0.1,straggle=1:3");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  for (int partitions : {2, 4}) {
    PartitionRunOptions prun;
    prun.partitions = partitions;
    auto result = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(DepthChecksum(result.value().groups), expected)
        << "P=" << partitions;
    // The chaos plan is dense enough that some recovery must have fired;
    // either retries (launch faults) or detected corruptions count.
    EXPECT_GT(result.value().retries + result.value().corruptions_detected, 0)
        << "P=" << partitions;
  }
}

// Pins the fault accounting of the parity plan above to exact values, so a
// change to the retry loop that keeps depths right but moves a counter, the
// wasted time or the committed cost of a successful attempt fails here.
TEST(RunPartitionedTest, FaultAccountingMatchesGoldens) {
  struct Golden {
    int partitions;
    int64_t retries;
    int64_t transient_faults;
    int64_t corruptions_detected;
    double wasted_sim_seconds;
    double sim_seconds;
    double compute_seconds;
    double comm_seconds;
    int64_t bytes_on_wire;
    int64_t supersteps;
    double totals_seconds;
    uint64_t load_transactions;
  };
  const Golden goldens[] = {
      {2, 3, 2, 1, 0.00015653552572706932, 6.3917941834451905e-05,
       1.8347941834451899e-05, 4.5569999999999999e-05, 13680, 9,
       0.00011698293810589112, 2882},
      {4, 3, 3, 0, 0.00052698695600298284, 0.00015496629082774048,
       1.8850290827740492e-05, 0.00013611599999999998, 53568, 9,
       0.00058187123340790452, 2908},
  };
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 32, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  auto plan = gpusim::FaultPlan::Parse(
      "seed=11,devices=4,p_fail=0.02,corrupt=0.1,straggle=1:3");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  for (const Golden& want : goldens) {
    PartitionRunOptions prun;
    prun.partitions = want.partitions;
    auto run = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const PartitionedRunResult& got = run.value();
    SCOPED_TRACE("P=" + std::to_string(want.partitions));
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.transient_faults, want.transient_faults);
    EXPECT_EQ(got.corruptions_detected, want.corruptions_detected);
    EXPECT_EQ(got.wasted_sim_seconds, want.wasted_sim_seconds);
    EXPECT_EQ(got.sim_seconds, want.sim_seconds);
    EXPECT_EQ(got.compute_seconds, want.compute_seconds);
    EXPECT_EQ(got.comm_seconds, want.comm_seconds);
    EXPECT_EQ(got.bytes_on_wire, want.bytes_on_wire);
    EXPECT_EQ(got.supersteps, want.supersteps);
    EXPECT_EQ(got.totals.seconds, want.totals_seconds);
    EXPECT_EQ(got.totals.mem.load_transactions, want.load_transactions);
  }
}

// Partitioned retries run through the shared attempt loop, so they carry
// the engine's retry telemetry: one retry.backoff_ms sample per retry and
// one attempt_failed trace instant per failed attempt.
TEST(RunPartitionedTest, RetriesRecordBackoffAndAttemptFailedTelemetry) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 32, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  auto plan = gpusim::FaultPlan::Parse(
      "seed=11,devices=4,p_fail=0.02,corrupt=0.1,straggle=1:3");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  options.observer.tracer = &tracer;
  options.observer.metrics = &metrics;
  PartitionRunOptions prun;
  prun.partitions = 4;
  auto run = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const int64_t retries = run.value().retries;
  ASSERT_GT(retries, 0);

  const obs::Histogram* backoff = metrics.FindHistogram("retry.backoff_ms");
  ASSERT_NE(backoff, nullptr);
  EXPECT_EQ(backoff->count(), retries);
  const obs::Counter* failed = metrics.FindCounter("fault.failed_attempts");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->value(), retries);

  std::ostringstream os;
  tracer.WriteJson(os);
  auto parsed = obs::ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  int64_t instants = 0;
  for (const obs::JsonValue& e : parsed.value().Find("traceEvents")->array()) {
    if (e.Find("ph")->string_value() != "i" ||
        e.Find("name")->string_value() != "attempt_failed") {
      continue;
    }
    ++instants;
    const double device = e.Find("args")->Find("device")->number_value();
    EXPECT_GE(device, 0.0);
    EXPECT_LT(device, 4.0);
  }
  EXPECT_EQ(instants, retries);
}

TEST(RunPartitionedTest, StragglerStretchesComputeOnly) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 16, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  PartitionRunOptions prun;
  prun.partitions = 4;
  auto clean = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(clean.ok());

  auto plan = gpusim::FaultPlan::Parse("seed=1,devices=4,straggle=2:5");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  auto slow = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(DepthChecksum(slow.value().groups),
            DepthChecksum(clean.value().groups));
  // The straggler rank gates every level-synchronous step...
  EXPECT_GT(slow.value().compute_seconds, clean.value().compute_seconds);
  // ...but the frontier exchange is priced by the link model alone.
  EXPECT_DOUBLE_EQ(slow.value().comm_seconds, clean.value().comm_seconds);
}

TEST(RunPartitionedTest, ReportsPartitionAccounting) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 16, 1);
  PartitionRunOptions prun;
  prun.partitions = 3;
  prun.link_gbps = 50.0;
  prun.link_us = 1.0;
  auto result =
      RunPartitioned(g, sources, ParityOptions(Strategy::kBitwise), prun);
  ASSERT_TRUE(result.ok());
  const PartitionedRunResult& res = result.value();
  EXPECT_EQ(res.partitions, 3);
  EXPECT_DOUBLE_EQ(res.link.bandwidth_gbps, 50.0);
  EXPECT_DOUBLE_EQ(res.link.latency_us, 1.0);
  ASSERT_EQ(res.partition_vertices.size(), 3u);
  ASSERT_EQ(res.partition_edges.size(), 3u);
  ASSERT_EQ(res.device_seconds.size(), 3u);
  int64_t edges = 0;
  for (int64_t e : res.partition_edges) edges += e;
  EXPECT_EQ(edges, g.edge_count());
  EXPECT_GT(res.supersteps, 0);
  EXPECT_NEAR(res.sim_seconds, res.compute_seconds + res.comm_seconds, 1e-15);
  EXPECT_GT(res.teps, 0.0);
  EXPECT_FALSE(res.phases.empty());
  EXPECT_GT(res.totals.seconds, 0.0);
}

}  // namespace
}  // namespace ibfs
