// Serving workloads, driven by the benchmark's own driver: one thread
// sends, another notes when each answer resolves.
//
//   serve-pk  one BfsService on PK, cache off, Poisson arrivals over the
//       giant component at 400 qps, where batches close on their deadline.
//       The traced run also probes 8,000 and 24,000 qps.
//   fleet-hot-pk  a FleetFrontDoor (2 shards, replication 2, cache on)
//       under Poisson 1,000 qps over 512 hot sources, with every shard
//       cache invalidated each 250 ms: about a fifth of the queries hit.
//
// A query's latency runs from its submit to the moment its future resolved,
// as the client sees it; the driver's lateness against the schedule is
// reported apart. Each run measures the workload's nominal rate open-loop,
// then its capacity closed-loop: kWindow queries kept in flight.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "fleet/fleet.h"
#include "graph/components.h"
#include "harness.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "service/workload.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ibfs::service::BfsService;
using ibfs::service::QueryResult;

// Queries in flight in the capacity phase: four full batches, so every
// executor always has a full batch queued.
constexpr size_t kWindow = 256;
// Queries per capacity round; capacity_qps is the median round's rate.
constexpr size_t kRoundQueries = 8192;
constexpr int kMinRounds = 5;
// The sender sleeps until this close to a send, then spins.
constexpr int kSpinUs = 50;
// The collector naps this long when no answer was ready; a closed-loop
// sender with a full window naps as long.
constexpr int kNapUs = 20;
// Share of --seconds given to the nominal rate; capacity gets the rest.
constexpr double kNominalShare = 0.6;
// Share of --seconds given to each probe rate of a traced run.
constexpr double kProbeShare = 0.1;
// Queries due in the first part of a phase are checked but not timed:
// thread pools and allocators warm up there.
constexpr double kWarmupSeconds = 0.2;

/// Traffic of one phase.
struct Traffic {
  double qps = 0.0;
  /// Distinct hot sources (0 = the whole giant component).
  int64_t source_pool = 0;
  /// Invalidate every cache this often (0 = never).
  double invalidate_every_s = 0.0;
  /// Closed-loop: invalidate every cache after this many sends instead, so
  /// the hit ratio does not depend on the rate reached (0 = never).
  int64_t invalidate_every_queries = 0;
};

/// One query as the driver saw it: its schedule in ms since the phase
/// started, and the fields of its QueryResult the benchmark reads.
struct Query {
  VertexId source = 0;
  /// Scheduled send; closed-loop, the actual send.
  double due_ms = 0.0;
  double sent_ms = 0.0;
  /// When the driver saw the future resolved.
  double resolved_ms = 0.0;
  bool answered = false;
  bool ok = false;
  bool cached = false;
  uint64_t checksum = 0;
  int64_t batch_id = -1;
  int group_index = -1;
  ibfs::service::QueryLatency latency;

  /// Submit to resolved future: everything the client waits for, the
  /// fleet's hand-off through its hedge workers included. The driver's
  /// own lateness (sent_ms - due_ms) is reported apart as
  /// driver.lag_p99_ms: on a shared virtual machine the hypervisor
  /// sometimes takes the driver's vCPU away for milliseconds, and with
  /// that lateness included the fleet's cache-hit median read 2 ms in 3
  /// of 10 runs.
  double latency_ms() const { return resolved_ms - sent_ms; }
};

/// What one driven phase produced, in schedule order.
struct PhaseRun {
  Clock::time_point origin;
  std::vector<Query> queries;
  double warmup_s = 0.0;
  /// Last send to the moment every answer had been collected.
  double drain_ms = 0.0;
  /// CPU seconds the system used during the phase: its own threads, plus
  /// the Submit calls run on the driver thread when those were metered.
  double system_cpu_s = 0.0;
  /// Each invalidation's start (ms since origin) and duration.
  std::vector<std::pair<double, double>> invalidations;
  /// Cache bytes resident just before each invalidation.
  std::vector<double> cache_bytes;
};

/// A freshly started system a phase drives — a service or a fleet,
/// reached only through its public calls.
struct System {
  std::function<std::future<QueryResult>(VertexId)> submit;
  /// Drops every cache entry (the write beside the reads); may be empty.
  std::function<void()> invalidate;
  std::function<double()> cache_bytes;
  /// Drains the system; returns its (merged) service stats.
  std::function<BfsService::Stats()> close;
};

/// The driver. With `window` 0 it is open-loop: the calling thread sends
/// each query at its scheduled time whether or not earlier ones have
/// answered; it sleeps until kSpinUs remain before a send and spins the
/// rest, so sleep overshoot does not make it late. Otherwise it is
/// closed-loop: it sends as soon as fewer than `window` queries are
/// unanswered, in event order, ignoring the schedule. A collector thread
/// notes when each answer resolves by polling every outstanding future,
/// so that time does not depend on how busy the sender is. With
/// `meter_submits`, the CPU time of the Submit calls (routing, admission,
/// the cache-hit path) is counted as the system's. Closed-loop, the sends
/// since the last invalidation are counted in `*since_invalidate` when
/// given, so that consecutive rounds keep one count.
PhaseRun Drive(const std::vector<ibfs::service::WorkloadEvent>& events,
               const Traffic& traffic, const System& system, size_t window,
               bool meter_submits, int64_t* since_invalidate = nullptr) {
  PhaseRun run;
  run.queries.resize(events.size());
  std::vector<std::future<QueryResult>> futures(events.size());
  // futures[0, sent) and their queries' send fields are the collector's.
  std::atomic<size_t> sent{0};
  std::atomic<size_t> answered{0};
  const double process_cpu = ProcessCpuSeconds();
  const double driver_cpu = ThreadCpuSeconds();
  double submit_cpu = 0.0;
  double collector_cpu = 0.0;
  run.origin = Clock::now() + std::chrono::milliseconds(1);
  const auto since = [&run](Clock::time_point t) { return Ms(run.origin, t); };
  const auto at = [&run](double s) {
    return run.origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
  };

  // Linux lets a sleep overrun by the thread's timer slack, 50 us by
  // default. Both driver threads set 1 us, so the sender's sleep ends near
  // kSpinUs before a send and the collector's naps stay near kNapUs.
  prctl(PR_SET_TIMERSLACK, 1000UL);
  // Takes every ready answer, oldest first, and naps kNapUs when none was
  // ready: a resolve time is late by at most a nap and a wake-up, tens of
  // microseconds against medians of about 2 ms. A collector that spun
  // instead took a vCPU from the system it measures; the fleet's median
  // and capacity spread 0.10 over five seeds with it and 0.04 without.
  // Gives up 20 s after the last send; then the drain time reads to that
  // point.
  std::thread collector([&] {
    prctl(PR_SET_TIMERSLACK, 1000UL);
    const double cpu = ThreadCpuSeconds();
    std::vector<size_t> pending;  // sent, unanswered, in send order
    size_t published = 0;
    double last_resolved_ms = 0.0;
    std::optional<Clock::time_point> give_up;
    for (;;) {
      for (const size_t n = sent.load(std::memory_order_acquire);
           published < n; ++published) {
        pending.push_back(published);
      }
      size_t kept = 0;
      for (const size_t i : pending) {
        if (futures[i].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          pending[kept++] = i;
          continue;
        }
        const Clock::time_point resolved = Clock::now();
        const QueryResult result = futures[i].get();
        Query& q = run.queries[i];
        q.resolved_ms = since(resolved);
        q.answered = true;
        q.ok = result.status.ok();
        q.cached = result.cached;
        q.checksum = result.depth_checksum;
        q.batch_id = result.batch_id;
        q.group_index = result.group_index;
        q.latency = result.latency;
        last_resolved_ms = std::max(last_resolved_ms, q.resolved_ms);
        answered.fetch_add(1, std::memory_order_release);
      }
      const bool took = kept < pending.size();
      pending.resize(kept);
      if (published == events.size()) {
        const double last_sent_ms = run.queries.back().sent_ms;
        if (!give_up) give_up = Clock::now() + std::chrono::seconds(20);
        if (pending.empty() || Clock::now() >= *give_up) {
          run.drain_ms = (pending.empty() ? last_resolved_ms
                                          : since(*give_up)) -
                         last_sent_ms;
          break;
        }
      }
      if (took) continue;
      std::this_thread::sleep_for(std::chrono::microseconds(kNapUs));
    }
    collector_cpu = ThreadCpuSeconds() - cpu;
  });

  const auto wait_until = [](Clock::time_point due) {
    constexpr auto kSpin = std::chrono::microseconds(kSpinUs);
    const Clock::time_point now = Clock::now();
    if (due - now > 2 * kSpin) std::this_thread::sleep_for(due - now - kSpin);
    while (Clock::now() < due) {
    }
  };
  const auto invalidate = [&] {
    run.cache_bytes.push_back(system.cache_bytes());
    const Clock::time_point t0 = Clock::now();
    system.invalidate();
    run.invalidations.emplace_back(since(t0), Ms(t0, Clock::now()));
  };
  double next_invalidate_s = traffic.invalidate_every_s;
  int64_t own_count = 0;
  int64_t& count = since_invalidate != nullptr ? *since_invalidate : own_count;
  for (size_t i = 0; i < events.size(); ++i) {
    if (window == 0) {
      while (traffic.invalidate_every_s > 0 &&
             events[i].at_s >= next_invalidate_s) {
        wait_until(at(next_invalidate_s));
        invalidate();
        next_invalidate_s += traffic.invalidate_every_s;
      }
    } else {
      while (i - answered.load(std::memory_order_acquire) >= window) {
        std::this_thread::sleep_for(std::chrono::microseconds(kNapUs));
      }
      if (traffic.invalidate_every_queries > 0 &&
          count++ == traffic.invalidate_every_queries) {
        invalidate();
        count = 1;
      }
    }
    Query& q = run.queries[i];
    q.source = events[i].source;
    if (window == 0) {
      q.due_ms = events[i].at_s * 1e3;
      wait_until(at(events[i].at_s));
      q.sent_ms = since(Clock::now());
    } else {
      q.sent_ms = q.due_ms = since(Clock::now());
    }
    if (meter_submits) {
      const double cpu = ThreadCpuSeconds();
      futures[i] = system.submit(q.source);
      submit_cpu += ThreadCpuSeconds() - cpu;
    } else {
      futures[i] = system.submit(q.source);
    }
    sent.store(i + 1, std::memory_order_release);
  }
  collector.join();
  run.system_cpu_s = (ProcessCpuSeconds() - process_cpu) -
                     (ThreadCpuSeconds() - driver_cpu) - collector_cpu +
                     submit_cpu;
  return run;
}

/// Timing and outcome of one phase.
struct Summary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;  // non-OK, unanswered, or wrong
  double lag_p99_ms = 0.0;
  /// Sends per second between the first and the last send.
  double achieved_qps = 0.0;
  /// Answers per second from the first send to the last answer.
  double answered_qps = 0.0;
  double drain_ms = 0.0;
};

/// Checks every answer and times the phase's queries.
Summary Summarize(const PhaseRun& run, Checker* checker) {
  Summary s;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  for (const Query& q : run.queries) {
    ++s.attempted;
    if (!q.answered || !q.ok || !checker->Check(q.source, q.checksum)) {
      ++s.failed;
      continue;
    }
    lag_ms.push_back(q.sent_ms - q.due_ms);
    if (q.due_ms >= run.warmup_s * 1e3) latency_ms.push_back(q.latency_ms());
  }
  s.p50_ms = Percentile(latency_ms, 50);
  s.p90_ms = Percentile(latency_ms, 90);
  s.p99_ms = Percentile(latency_ms, 99);
  s.lag_p99_ms = Percentile(lag_ms, 99);
  s.drain_ms = run.drain_ms;
  if (run.queries.size() > 1) {
    const double first_ms = run.queries.front().sent_ms;
    const double last_sent_ms = run.queries.back().sent_ms;
    s.achieved_qps = Ratio(static_cast<double>(run.queries.size() - 1) * 1e3,
                           last_sent_ms - first_ms);
    s.answered_qps = Ratio(static_cast<double>(run.queries.size()) * 1e3,
                           last_sent_ms + run.drain_ms - first_ms);
  }
  return s;
}

std::vector<ibfs::service::WorkloadEvent> Arrivals(
    const ibfs::graph::Csr& graph, const Traffic& traffic, double seconds,
    uint64_t seed) {
  ibfs::service::WorkloadOptions options;
  options.arrival = ibfs::service::ArrivalProcess::kPoisson;
  options.qps = traffic.qps;
  options.duration_s = seconds;
  options.seed = seed;
  options.source_pool = traffic.source_pool;
  auto events = ibfs::service::GenerateArrivals(graph, options);
  IBFS_CHECK(events.ok()) << events.status().ToString();
  return std::move(events).value();
}

/// Host execute time of each group execution, ms. A (batch, group,
/// execute time) triple identifies one execution, also across fleet
/// shards.
std::vector<double> GroupExecuteMs(const PhaseRun& run) {
  std::set<std::tuple<int64_t, int, double>> groups;
  for (const Query& q : run.queries) {
    if (!q.answered || !q.ok || q.cached) continue;
    groups.insert({q.batch_id, q.group_index, q.latency.execute_ms});
  }
  std::vector<double> ms;
  for (const auto& group : groups) ms.push_back(std::get<2>(group));
  return ms;
}

/// Records the traced phase's spans: one per query from its scheduled time
/// until its future resolved, the driver's send lag and the service's
/// queue, batch and execute intervals (QueryResult::latency) beside it on
/// the same lane, plus one per cache invalidation.
void RecordSpans(const PhaseRun& run, SpanLog* spans) {
  const auto at = [&run](double ms) {
    return run.origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
  };
  for (size_t i = 0; i < run.queries.size(); ++i) {
    const Query& q = run.queries[i];
    if (!q.answered) continue;
    const int lane = 1 + static_cast<int>(i % 16);
    spans->Add("query", at(q.due_ms), at(q.resolved_ms), lane);
    spans->Add("send_lag", at(q.due_ms), at(q.sent_ms), lane);
    if (q.cached) continue;
    const double queued = q.sent_ms + q.latency.queue_ms;
    const double batched = queued + q.latency.batch_ms;
    spans->Add("queue", at(q.sent_ms), at(queued), lane);
    spans->Add("batch", at(queued), at(batched), lane);
    spans->Add("execute", at(batched), at(batched + q.latency.execute_ms),
               lane);
  }
  for (const auto& [start_ms, dur_ms] : run.invalidations) {
    spans->Add("invalidate", at(start_ms), at(start_ms + dur_ms), 0);
  }
}

/// Per-layer metrics every served phase has: driver, admission/batching
/// and execution. `kernel_s` holds the simulated seconds of the phase's
/// kernel spans by name.
void ReportServingLayers(
    const PhaseRun& run, const Summary& summary,
    const BfsService::Stats& stats, const ibfs::obs::MetricsRegistry& metrics,
    const std::map<std::string, double, std::less<>>& kernel_s,
    Report* report) {
  std::vector<double> queue_ms, batch_ms, execute_ms;
  // Self time of the query span: what the client waited for outside the
  // queue, batch and execute stages — the Submit call, the cache-hit path,
  // the fleet's hedge hop and completion.
  double self_ms = 0.0;
  int64_t answered = 0;
  for (const Query& q : run.queries) {
    if (!q.answered || !q.ok) continue;
    const ibfs::service::QueryLatency& l = q.latency;
    self_ms += q.latency_ms() - l.queue_ms - l.batch_ms - l.execute_ms;
    ++answered;
    if (q.cached) continue;
    queue_ms.push_back(l.queue_ms);
    batch_ms.push_back(l.batch_ms);
    execute_ms.push_back(l.execute_ms);
  }
  report->Layer("service.self_ms",
                Ratio(self_ms, static_cast<double>(answered)));
  const std::vector<double> group_ms = GroupExecuteMs(run);
  report->Layer("service.queue_ms.p50", Percentile(queue_ms, 50));
  report->Layer("service.queue_ms.p99", Percentile(queue_ms, 99));
  report->Layer("service.batch_ms.p50", Percentile(batch_ms, 50));
  report->Layer("service.batch_ms.p99", Percentile(batch_ms, 99));
  report->Layer("service.execute_ms.p50", Percentile(execute_ms, 50));
  report->Layer("service.execute_ms.p99", Percentile(execute_ms, 99));
  report->Layer("service.mean_batch_size", stats.MeanBatchSize());
  report->Layer("service.deadline_close_ratio",
                Ratio(static_cast<double>(stats.deadline_closes),
                      static_cast<double>(stats.batches)));
  report->Layer("service.sharing_ratio", stats.SharingRatio());
  report->Layer("service.executed_per_query",
                Ratio(static_cast<double>(stats.executed_instances),
                      static_cast<double>(stats.queries)));
  report->Layer("service.shed_ratio",
                Ratio(static_cast<double>(stats.shed),
                      static_cast<double>(summary.attempted)));
  report->Layer("ibfs.group_host_ms.p50", Percentile(group_ms, 50));
  report->Layer("ibfs.group_host_ms.p99", Percentile(group_ms, 99));
  const auto counter = [&metrics](const char* name) {
    const ibfs::obs::Counter* c = metrics.FindCounter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  const double load = counter("gpusim.load_transactions");
  const double store = counter("gpusim.store_transactions");
  double group_s = 0.0;
  for (double ms : group_ms) group_s += ms / 1e3;
  const auto phase_s = [&kernel_s](std::string_view tag) {
    auto it = kernel_s.find(tag);
    return it == kernel_s.end() ? 0.0 : it->second;
  };
  report->Layer("gpusim.sim_s.td_inspect", phase_s("td_inspect"));
  report->Layer("gpusim.sim_s.bu_inspect", phase_s("bu_inspect"));
  report->Layer("gpusim.sim_s.fq_gen", phase_s("fq_gen"));
  report->Layer("gpusim.load_txn", load);
  report->Layer("gpusim.store_txn", store);
  report->Layer("gpusim.atomics", counter("gpusim.atomic_ops"));
  report->Layer("gpusim.host_ns_per_txn", Ratio(group_s * 1e9, load + store));
  report->Layer("driver.lag_p99_ms", summary.lag_p99_ms);
  report->Layer("driver.achieved_qps", summary.achieved_qps);
}

/// Runs a serving workload: the nominal phase open-loop, then the capacity
/// phase closed-loop under `capacity` traffic (its rate is unused). A
/// traced run replaces the capacity phase with a traced copy of the
/// nominal phase (and reports per-layer metrics from it), then runs an
/// untraced phase at each `probe_qps` rate and reports its median latency
/// as serve.p50_ms.<rate/1000>k_qps. `open(observer)` starts a fresh
/// system, wiring `observer` (empty outside the traced half) into it.
void RunServing(
    const Args& args, Workbench& bench, const Traffic& nominal,
    const Traffic& capacity, const std::vector<double>& probe_qps,
    const std::function<System(const ibfs::obs::Observer&)>& open,
    const std::function<void(const PhaseRun&, Report*)>& report_system_layers,
    Report* report) {
  Checker checker(&bench.refs);
  const int64_t edges = bench.graph.edge_count();
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t phase_seed = args.seed * 1000;
  // --corrupt-expected flips the answer of the first query sent.
  bool corrupt_pending = args.corrupt_expected;
  const auto tally = [&](const Summary& s) {
    attempted += s.attempted;
    failed += s.failed;
  };
  const auto run_phase = [&](const Traffic& traffic, double seconds,
                             const ibfs::obs::Observer& observer,
                             PhaseRun* run_out, BfsService::Stats* stats_out) {
    const auto events = Arrivals(bench.graph, traffic, seconds, ++phase_seed);
    if (corrupt_pending) {
      bench.refs.Corrupt(events.front().source);
      corrupt_pending = false;
    }
    const System system = open(observer);
    PhaseRun run = Drive(events, traffic, system, 0, false);
    run.warmup_s = std::min(kWarmupSeconds, seconds / 4);
    const BfsService::Stats stats = system.close();
    const Summary s = Summarize(run, &checker);
    tally(s);
    if (run_out != nullptr) *run_out = std::move(run);
    if (stats_out != nullptr) *stats_out = stats;
    return s;
  };

  // A traced run splits --seconds between the untraced and the traced
  // nominal phase after the probes have taken their share.
  const double probe_s = std::max(0.5, kProbeShare * args.seconds);
  const double nominal_s = std::max(
      0.5, args.trace ? (args.seconds -
                         static_cast<double>(probe_qps.size()) * probe_s) / 2
                      : args.seconds * kNominalShare);
  BfsService::Stats stats;
  const Summary plain = run_phase(nominal, nominal_s, {}, nullptr, &stats);
  std::printf("nominal %.0f qps: p50 %.3f ms, p99 %.3f ms, %lld queries\n",
              nominal.qps, plain.p50_ms, plain.p99_ms,
              static_cast<long long>(plain.attempted));
  report->EndToEnd("p50_ms", plain.p50_ms);
  // Simulated TEPS of the batches the nominal rate formed. Taken from the
  // capacity phase instead, the fleet's figure spread 0.09 over five
  // seeds, against 0.02 here.
  report->EndToEnd("sim_teps", stats.Teps(edges));
  report->Note("nominal.queries", static_cast<double>(plain.attempted));
  report->Note("nominal.drain_ms", plain.drain_ms);
  if (!args.trace) {
    // Capacity: one system driven closed-loop in rounds of about
    // kRoundQueries until the rest of --seconds is spent. capacity_qps is
    // the median round's answer rate, so a stall of the shared host moves
    // one round, not the result. host_teps comes from here too: idle
    // threads polling at the nominal rate made its CPU time a measure of
    // the pollers (spread 0.10-0.13 there, 0.05-0.06 here).
    Traffic traffic = capacity;
    traffic.qps = static_cast<double>(kRoundQueries);  // events per round
    const System system = open({});
    std::vector<double> rates, p50s;
    double system_cpu_s = 0.0;
    const double budget_s = args.seconds * (1.0 - kNominalShare);
    const size_t min_rounds = args.smoke ? 1 : kMinRounds;
    int64_t since_invalidate = 0;
    const Clock::time_point start = Clock::now();
    while (rates.size() < min_rounds || Seconds(start, Clock::now()) < budget_s) {
      const auto events = Arrivals(bench.graph, traffic, 1.0, ++phase_seed);
      const PhaseRun run =
          Drive(events, traffic, system, kWindow, true, &since_invalidate);
      const Summary s = Summarize(run, &checker);
      tally(s);
      rates.push_back(s.answered_qps);
      p50s.push_back(s.p50_ms);
      system_cpu_s += run.system_cpu_s;
    }
    const BfsService::Stats capacity_stats = system.close();
    std::printf("capacity: median %.0f qps over %zu rounds\n", Median(rates),
                rates.size());
    report->EndToEnd("capacity_qps", Median(rates));
    // Executed BFS work per CPU second of the system: its threads plus the
    // Submit calls it ran on the driver thread. Steal on a shared host does
    // not move it, and overheads around execution (batching, routing,
    // hedging, cache hits) count against it.
    report->EndToEnd("host_teps",
                     Ratio(static_cast<double>(capacity_stats.executed_instances) *
                               static_cast<double>(edges),
                           system_cpu_s));
    report->EndToEnd("peak_rss_mb", PeakRssMb());
    report->Note("capacity.rounds", static_cast<double>(rates.size()));
    // A closed loop cannot grow a backlog; with this median also within
    // 20 ms, capacity_qps is a rate that meets the latency limit.
    report->Note("capacity.p50_ms", Median(p50s));
  } else {
    // The traced half attaches the span log's tracer and a metrics registry
    // to the system, so the library's own spans (the gpusim kernels among
    // them) and counters land beside the benchmark's.
    SpanLog spans(true);
    ibfs::obs::MetricsRegistry metrics;
    ibfs::obs::Observer observer;
    observer.tracer = spans.tracer();
    observer.metrics = &metrics;
    PhaseRun traced_run;
    BfsService::Stats traced_stats;
    const Summary traced =
        run_phase(nominal, nominal_s, observer, &traced_run, &traced_stats);
    ReportServingLayers(traced_run, traced, traced_stats, metrics,
                        SpanSecondsByName(*spans.tracer(), "kernel"), report);
    RecordSpans(traced_run, &spans);
    report->Layer("obs.trace_overhead_ratio",
                  Ratio(traced.p50_ms, plain.p50_ms) - 1.0);
    report->Layer("driver.latency_p90_ms", plain.p90_ms);
    report->Layer("driver.latency_p99_ms", plain.p99_ms);
    report_system_layers(traced_run, report);
    spans.Write(args.trace_out);
    for (const double qps : probe_qps) {
      Traffic traffic = nominal;
      traffic.qps = qps;
      const Summary probe = run_phase(traffic, probe_s, {}, nullptr, nullptr);
      std::printf("probe %.0f qps: p50 %.3f ms\n", qps, probe.p50_ms);
      report->Layer("serve.p50_ms." + std::to_string(std::llround(qps / 1e3)) +
                        "k_qps",
                    probe.p50_ms);
    }
  }
  report->attempted = attempted;
  report->failed = failed;
  report->Layer("error_ratio", Ratio(static_cast<double>(failed),
                                     static_cast<double>(attempted)));
  if (failed > 0) report->correct = false;
}

Workbench SetUpPk(const Args& args, Report* report) {
  // Arrivals can ask about any vertex of the giant component, so every
  // one of them gets a reference answer.
  return SetUp(args, ibfs::gen::BenchmarkId::kPK, 0,
               [](const ibfs::graph::Csr& g) {
                 return ibfs::graph::GiantComponent(g);
               },
               report);
}

ibfs::service::ServiceOptions ServiceTemplate() {
  ibfs::service::ServiceOptions options;
  options.max_batch = 64;
  options.max_delay_ms = 2.0;
  options.execute_threads = 2;
  options.keep_depths = false;
  options.engine.strategy = ibfs::Strategy::kBitwise;
  options.engine.grouping = ibfs::GroupingPolicy::kGroupBy;
  return options;
}

}  // namespace

void RunServePk(const Args& args, Report* report) {
  Workbench bench = SetUpPk(args, report);
  // At 400 qps a batch holds about two queries and closes on its 2 ms
  // deadline, so the median moves with admission, batching and
  // small-batch execution, not with how much CPU a shared host lends. At
  // 8,000 and 24,000 qps the executors are busy and the median followed
  // the host's load (interquartile spread up to 58% over ten seeds), so
  // those rates are probes of the traced run.
  Traffic nominal;
  nominal.qps = 400.0;
  const auto open = [&](const ibfs::obs::Observer& observer) {
    ibfs::service::ServiceOptions options = ServiceTemplate();
    options.cache.enabled = false;
    options.observer = observer;
    auto created = BfsService::Create(&bench.graph, options);
    IBFS_CHECK(created.ok()) << created.status().ToString();
    std::shared_ptr<BfsService> service = std::move(created).value();
    System system;
    system.submit = [service](VertexId v) { return service->Submit(v); };
    system.close = [service] {
      service->Shutdown();
      return service->stats();
    };
    return system;
  };
  RunServing(args, bench, nominal, nominal, {8000.0, 24000.0}, open,
             [](const PhaseRun&, Report*) {}, report);
}

void RunFleetHotPk(const Args& args, Report* report) {
  Workbench bench = SetUpPk(args, report);
  // About half a query per hot source per invalidation period, so about a
  // fifth of the queries hit and the median falls on a miss through the
  // fleet. At 8,000 qps over 256 sources nearly every query hit; the
  // median was then the hand-off through a hedge worker, tens of
  // microseconds that followed the host's scheduling (interquartile spread
  // above 100% over ten seeds). With 256 sources at 1,000 qps a third hit,
  // the median sat near the bottom of the miss distribution, and it spread
  // up to 0.15 over five seeds, against 0.02 with 512.
  Traffic nominal;
  nominal.qps = 1000.0;
  nominal.source_pool = 512;
  nominal.invalidate_every_s = 0.25;
  ibfs::fleet::FleetStats fleet_stats;
  ibfs::service::CacheStats cache_stats;
  const auto open = [&](const ibfs::obs::Observer& observer) {
    ibfs::fleet::FleetOptions options;
    options.shards = 2;
    options.replication = 2;
    // Eight hedge workers. A hedged read holds its worker until the
    // primary answers, so with few workers every cache hit queues behind
    // the in-flight misses of a refill; with one worker at 8,000 qps that
    // queue decided the tail and moved it by half from run to run.
    options.hedge_threads = 8;
    options.gather_threads = 1;
    options.service = ServiceTemplate();
    options.service.execute_threads = 1;
    options.service.cache.enabled = true;
    options.service.observer = observer;
    auto created = ibfs::fleet::FleetFrontDoor::Create(&bench.graph, options);
    IBFS_CHECK(created.ok()) << created.status().ToString();
    std::shared_ptr<ibfs::fleet::FleetFrontDoor> fleet =
        std::move(created).value();
    // The fleet has no invalidation entry point; each shard's public
    // BfsService::InvalidateCache is reached through shard_for_test.
    const auto each_shard = [fleet](const auto& fn) {
      for (int i = 0; i < fleet->shard_count(); ++i) fn(fleet->shard_for_test(i));
    };
    System system;
    system.submit = [fleet](VertexId v) { return fleet->Submit(v); };
    system.invalidate = [each_shard] {
      each_shard([](BfsService* shard) { shard->InvalidateCache(); });
    };
    system.cache_bytes = [each_shard] {
      double bytes = 0.0;
      each_shard([&bytes](BfsService* shard) {
        bytes += static_cast<double>(shard->cache_stats().bytes_resident);
      });
      return bytes;
    };
    system.close = [fleet, each_shard, &fleet_stats, &cache_stats] {
      cache_stats = {};
      each_shard([&cache_stats](BfsService* shard) {
        const auto c = shard->cache_stats();
        cache_stats.hits += c.hits;
        cache_stats.misses += c.misses;
      });
      fleet->Shutdown();
      fleet_stats = fleet->stats();
      return fleet_stats.totals;
    };
    return system;
  };
  const auto fleet_layers = [&](const PhaseRun& run, Report* r) {
    // The cache layer's own view: a shard's total_ms of a hit or a miss.
    std::vector<double> hit_us, miss_ms;
    for (const Query& q : run.queries) {
      if (!q.answered || !q.ok) continue;
      if (q.cached) {
        hit_us.push_back(q.latency.total_ms * 1e3);
      } else {
        miss_ms.push_back(q.latency.total_ms);
      }
    }
    std::vector<double> invalidate_ms;
    for (const auto& inv : run.invalidations) invalidate_ms.push_back(inv.second);
    r->Layer("cache.hit_p50_us", Percentile(hit_us, 50));
    r->Layer("cache.miss_p99_ms", Percentile(miss_ms, 99));
    r->Layer("cache.invalidate_ms", Median(invalidate_ms));
    r->Layer("cache.bytes_resident",
             run.cache_bytes.empty()
                 ? 0.0
                 : *std::max_element(run.cache_bytes.begin(),
                                     run.cache_bytes.end()));
    double routed = 0.0;
    for (int64_t n : fleet_stats.routed) routed += static_cast<double>(n);
    r->Layer("cache.hit_ratio", cache_stats.HitRatio());
    r->Layer("fleet.imbalance", fleet_stats.Imbalance());
    r->Layer("fleet.hedge_fire_ratio",
             Ratio(static_cast<double>(fleet_stats.hedges_fired), routed));
    r->Layer("fleet.hedge_win_ratio",
             Ratio(static_cast<double>(fleet_stats.hedges_won),
                   static_cast<double>(fleet_stats.hedges_fired)));
    r->Layer("fleet.replica_writes_per_miss",
             Ratio(static_cast<double>(fleet_stats.replica_cache_writes),
                   static_cast<double>(cache_stats.misses)));
    r->Layer("fleet.failover_reroutes",
             static_cast<double>(fleet_stats.failover_reroutes));
  };
  // Capacity keeps the nominal mix: the same hot pool, invalidated after
  // as many sends as the nominal rate makes in one period. Invalidated on
  // the clock instead, a faster round hit the cache more often and so ran
  // faster still, and capacity spread 0.23 over five seeds.
  Traffic capacity = nominal;
  capacity.invalidate_every_queries =
      std::llround(nominal.qps * nominal.invalidate_every_s);
  RunServing(args, bench, nominal, capacity, {}, open, fleet_layers, report);
}

}  // namespace perfbench
