#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "baselines/reference_bfs.h"
#include "ibfs/runner.h"
#include "obs/json.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace perfbench {
namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// The metric catalog. BENCHMARK.json names the same metrics with the same
// units; perfbench/run.py refuses to print a result when the two differ.
constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"host_teps", "edges/s"},   {"sim_teps", "edges/s"},
    {"p50_ms", "ms"},           {"capacity_qps", "qps"},
};

constexpr CatalogEntry kPerLayer[] = {
    {"error_ratio", "ratio"},
    {"gen.generate_s", "s"},
    {"baselines.reference_us_per_source", "us"},
    {"plan.group_sources_ms", "ms"},
    {"plan.groups", "count"},
    {"plan.rule_matched_ratio", "ratio"},
    {"plan.sharing_ratio", "ratio"},
    {"ibfs.group_host_ms.p50", "ms"},
    {"ibfs.group_host_ms.p99", "ms"},
    {"gpusim.sim_s.td_inspect", "s"},
    {"gpusim.sim_s.bu_inspect", "s"},
    {"gpusim.sim_s.fq_gen", "s"},
    {"gpusim.load_txn", "count"},
    {"gpusim.store_txn", "count"},
    {"gpusim.atomics", "count"},
    {"gpusim.host_ns_per_txn", "ns"},
    {"engine.self_ms", "ms"},
    {"part.compute_sim_s", "s"},
    {"part.comm_sim_s", "s"},
    {"part.bytes_on_wire", "bytes"},
    {"part.rounds", "count"},
    {"part.supersteps", "count"},
    {"part.edge_imbalance", "ratio"},
    {"part.host_s_per_superstep", "s"},
    {"part.p1_vs_engine_sim_ratio", "ratio"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.batch_ms.p50", "ms"},
    {"service.batch_ms.p99", "ms"},
    {"service.execute_ms.p50", "ms"},
    {"service.execute_ms.p99", "ms"},
    {"service.mean_batch_size", "count"},
    {"service.deadline_close_ratio", "ratio"},
    {"service.sharing_ratio", "ratio"},
    {"service.executed_per_query", "ratio"},
    {"service.shed_ratio", "ratio"},
    {"service.self_ms", "ms"},
    {"cache.hit_ratio", "ratio"},
    {"cache.hit_p50_us", "us"},
    {"cache.miss_p99_ms", "ms"},
    {"cache.bytes_resident", "bytes"},
    {"cache.invalidate_ms", "ms"},
    {"fleet.imbalance", "ratio"},
    {"fleet.hedge_fire_ratio", "ratio"},
    {"fleet.hedge_win_ratio", "ratio"},
    {"fleet.replica_writes_per_miss", "ratio"},
    {"fleet.failover_reroutes", "count"},
    {"driver.latency_p90_ms", "ms"},
    {"driver.latency_p99_ms", "ms"},
    {"driver.lag_p99_ms", "ms"},
    {"driver.achieved_qps", "qps"},
    {"serve.p50_ms.8k_qps", "ms"},
    {"serve.p50_ms.24k_qps", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
};

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      unsigned* r = regs + 4 * leaf;
      __get_cpuid(0x80000002 + leaf, &r[0], &r[1], &r[2], &r[3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Report::Report() {
  for (const CatalogEntry& e : kEndToEnd) end_to_end_[e.name].unit = e.unit;
  for (const CatalogEntry& e : kPerLayer) layer_[e.name].unit = e.unit;
}

void Report::EndToEnd(std::string_view name, double value) {
  auto it = end_to_end_.find(name);
  IBFS_CHECK(it != end_to_end_.end()) << "unknown end-to-end metric " << name;
  it->second.value = value;
  it->second.set = true;
}

void Report::Layer(std::string_view name, double value) {
  auto it = layer_.find(name);
  IBFS_CHECK(it != layer_.end()) << "unknown per-layer metric " << name;
  it->second.value = value;
  it->second.set = true;
}

void Report::Print(const Args& args) const {
  std::ostringstream os;
  ibfs::obs::JsonWriter w(os);
  const auto write_set = [&w](const char* key, const auto& set,
                               bool unset_as_zero) {
    w.Key(key);
    w.BeginObject();
    for (const auto& [name, v] : set) {
      if (!v.set && !unset_as_zero) continue;
      w.Key(name);
      w.BeginObject();
      w.Key("value");
      w.Double(v.value);
      w.Key("unit");
      w.String(v.unit);
      w.EndObject();
    }
    w.EndObject();
  };
  w.BeginObject();
  w.Key("stamp");
  w.BeginObject();
  w.Key("workload");
  w.String(args.workload);
  w.Key("seed");
  w.Uint(args.seed);
  w.Key("seconds");
  w.Double(args.seconds);
  w.Key("trace");
  w.Bool(args.trace);
  w.Key("cpus");
  w.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("cpu_model");
  w.String(CpuModel());
  w.Key("compiler");
  w.String(PERFBENCH_COMPILER);
  w.Key("build_type");
  w.String(PERFBENCH_BUILD_TYPE);
  w.EndObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Int(attempted);
  w.Key("failed");
  w.Int(failed);
  write_set("end_to_end", end_to_end_, false);
  write_set("per_layer", layer_, args.trace);
  w.Key("notes");
  w.BeginObject();
  for (const auto& [key, value] : notes_) {
    w.Key(key);
    w.Double(value);
  }
  w.EndObject();
  w.EndObject();
  std::cout << "RESULT " << os.str() << std::endl;
}

void ReferenceAnswers::Build(const ibfs::graph::Csr& graph,
                             std::span<const VertexId> sources) {
  std::vector<VertexId> distinct(sources.begin(), sources.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<uint64_t> sums(distinct.size());
  const unsigned workers =
      std::max(1u, std::min<unsigned>(std::thread::hardware_concurrency(),
                                      static_cast<unsigned>(distinct.size())));
  std::atomic<size_t> next{0};
  std::vector<double> busy_s(workers, 0.0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      const Clock::time_point start = Clock::now();
      for (size_t i = next++; i < distinct.size(); i = next++) {
        sums[i] = ibfs::Fnv1a(ibfs::baselines::ReferenceDepthsU8(
            graph, distinct[i], ibfs::TraversalOptions::kMaxTraversalLevel));
      }
      busy_s[t] = Seconds(start, Clock::now());
    });
  }
  for (std::thread& t : threads) t.join();
  expected_.clear();
  for (size_t i = 0; i < distinct.size(); ++i) expected_[distinct[i]] = sums[i];
  double busy = 0.0;
  for (double s : busy_s) busy += s;
  us_per_source_ = Ratio(busy * 1e6, static_cast<double>(distinct.size()));
}

uint64_t ReferenceAnswers::Expected(VertexId source) const {
  auto it = expected_.find(source);
  IBFS_CHECK(it != expected_.end()) << "no reference answer for " << source;
  return it->second;
}

void ReferenceAnswers::Corrupt(VertexId source) {
  auto it = expected_.find(source);
  IBFS_CHECK(it != expected_.end()) << "no reference answer for " << source;
  it->second ^= 1;
}

Workbench SetUp(
    const Args& args, ibfs::gen::BenchmarkId id, int scale_delta,
    const std::function<std::vector<VertexId>(const ibfs::graph::Csr&)>& pick,
    Report* report) {
  std::optional<ibfs::graph::Csr> graph;
  std::vector<VertexId> sources;
  ReferenceAnswers refs;
  std::vector<double> total_s;
  std::vector<double> generate_s;
  for (int rep = 0; rep < args.setup_reps(); ++rep) {
    const Clock::time_point start = Clock::now();
    auto generated = ibfs::gen::GenerateBenchmark(id, scale_delta);
    IBFS_CHECK(generated.ok()) << generated.status().ToString();
    const Clock::time_point generated_at = Clock::now();
    graph.emplace(std::move(generated).value());
    sources = pick(*graph);
    refs.Build(*graph, sources);
    const Clock::time_point end = Clock::now();
    total_s.push_back(Seconds(start, end));
    generate_s.push_back(Seconds(start, generated_at));
  }
  Workbench bench{std::move(*graph), std::move(sources), std::move(refs)};
  report->EndToEnd("setup_s", Median(total_s));
  report->Layer("gen.generate_s", Median(generate_s));
  report->Layer("baselines.reference_us_per_source", bench.refs.us_per_source());
  report->Note("graph.vertices", static_cast<double>(bench.graph.vertex_count()));
  report->Note("graph.edges", static_cast<double>(bench.graph.edge_count()));
  report->Note("reference.sources", static_cast<double>(bench.refs.size()));
  return bench;
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) {
    // The driver thread records five spans per query, and each serving
    // executor thread a kernel span per phase and level of every batch; a
    // long traced run can pass the tracer's default cap of 256 k per
    // thread. Past this cap the oldest spans are dropped.
    tracer_.SetMaxEventsPerThread(size_t{1} << 20);
    tracer_.SetProcessName(kBenchPid, "perfbench (host wall clock)");
  }
}

void SpanLog::Add(std::string_view name, Clock::time_point start,
                  Clock::time_point end, int lane) {
  if (!enabled_) return;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  tracer_.CompleteSpan({kBenchPid, lane}, name, "perfbench", us(start),
                       us(end) - us(start));
}

void SpanLog::Write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  if (tracer_.dropped_events() > 0) {
    std::fprintf(stderr, "trace dropped %lld events\n",
                 static_cast<long long>(tracer_.dropped_events()));
  }
  const ibfs::Status status = tracer_.WriteFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", status.ToString().c_str());
  }
}

std::map<std::string, double, std::less<>> SpanSecondsByName(
    const ibfs::obs::Tracer& tracer, std::string_view category) {
  // The tracer has no read-back, so its Chrome-trace JSON is split into
  // its events, and each event is parsed on its own rather than holding a
  // parsed tree of every event of a serving phase at once.
  IBFS_CHECK(tracer.dropped_events() == 0)
      << "the trace dropped events, so its sums would fall short";
  std::ostringstream os;
  tracer.WriteJson(os);
  const std::string doc = os.str();
  const size_t events_at = doc.find('[');
  IBFS_CHECK(events_at != std::string::npos) << "trace has no event array";
  std::map<std::string, double, std::less<>> seconds;
  int depth = 0;
  bool in_string = false;
  size_t event_start = 0;
  for (size_t i = events_at + 1; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) event_start = i;
    } else if (c == '}') {
      if (--depth > 0) continue;
      auto event = ibfs::obs::ParseJson(
          std::string_view(doc).substr(event_start, i + 1 - event_start));
      IBFS_CHECK(event.ok()) << event.status().ToString();
      const ibfs::obs::JsonValue* cat = event.value().Find("cat");
      const ibfs::obs::JsonValue* name = event.value().Find("name");
      const ibfs::obs::JsonValue* dur = event.value().Find("dur");
      if (cat != nullptr && cat->string_value() == category &&
          name != nullptr && dur != nullptr) {
        seconds[name->string_value()] += dur->number_value() * 1e-6;
      }
    } else if (c == ']' && depth == 0) {
      break;  // end of the event array
    }
  }
  return seconds;
}

namespace {
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
