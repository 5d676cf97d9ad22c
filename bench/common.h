#ifndef IBFS_BENCH_COMMON_H_
#define IBFS_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "gen/benchmarks.h"
#include "graph/components.h"
#include "graph/csr.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/logging.h"

namespace ibfs::bench {

/// One generated benchmark graph.
struct LoadedGraph {
  std::string name;
  gen::BenchmarkId id;
  graph::Csr graph;
};

/// Generates one preset at base scale + IBFS_SCALE (env, default 0).
inline LoadedGraph LoadOne(gen::BenchmarkId id) {
  auto result = gen::GenerateBenchmark(id, gen::EnvScaleDelta());
  IBFS_CHECK(result.ok()) << result.status().ToString();
  return {gen::GetBenchmark(id).name, id, std::move(result).value()};
}

/// Generates the full 13-graph suite (Section 8.1).
inline std::vector<LoadedGraph> LoadAll() {
  std::vector<LoadedGraph> graphs;
  for (const auto& spec : gen::AllBenchmarks()) {
    graphs.push_back(LoadOne(spec.id));
  }
  return graphs;
}

/// Generates a named subset.
inline std::vector<LoadedGraph> LoadNamed(
    const std::vector<std::string>& names) {
  std::vector<LoadedGraph> graphs;
  for (const auto& name : names) {
    auto id = gen::BenchmarkByName(name);
    IBFS_CHECK(id.has_value()) << "unknown benchmark " << name;
    graphs.push_back(LoadOne(*id));
  }
  return graphs;
}

/// Giant-component source sample (the paper's Graph500-style selection).
inline std::vector<graph::VertexId> Sources(const graph::Csr& graph,
                                            int64_t count,
                                            uint64_t seed = 2016) {
  return graph::SampleConnectedSources(graph, count, seed);
}

/// Instance count for a bench, overridable via IBFS_INSTANCES.
inline int64_t InstanceCount(int64_t def) {
  return EnvInt64("IBFS_INSTANCES", def);
}

/// Process-wide telemetry for the bench harnesses, driven by environment
/// variables so the figure mains need no flag plumbing:
///   IBFS_TRACE_OUT=path    Chrome trace-event JSON, written at exit
///   IBFS_METRICS_OUT=path  global metrics snapshot, written at exit
/// With neither set this returns a disabled (all-null) observer, keeping
/// the default bench path at its usual cost.
inline obs::Observer BenchObserver() {
  static obs::Tracer tracer;
  static const std::string trace_out = EnvString("IBFS_TRACE_OUT", "");
  static const std::string metrics_out = EnvString("IBFS_METRICS_OUT", "");
  static const bool flush_registered = [] {
    if (trace_out.empty() && metrics_out.empty()) return false;
    std::atexit([] {
      if (!trace_out.empty()) {
        const Status status = tracer.WriteFile(trace_out);
        if (status.ok()) {
          std::fprintf(stderr, "wrote %s\n", trace_out.c_str());
        } else {
          std::fprintf(stderr, "trace write failed: %s\n",
                       status.ToString().c_str());
        }
      }
      if (!metrics_out.empty()) {
        const Status status =
            obs::MetricsRegistry::Global().WriteFile(metrics_out);
        if (status.ok()) {
          std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
        } else {
          std::fprintf(stderr, "metrics write failed: %s\n",
                       status.ToString().c_str());
        }
      }
    });
    return true;
  }();
  (void)flush_registered;
  obs::Observer observer;
  if (!trace_out.empty()) observer.tracer = &tracer;
  if (!metrics_out.empty()) {
    observer.metrics = &obs::MetricsRegistry::Global();
  }
  return observer;
}

/// Baseline engine options shared by the figure harnesses. Telemetry is
/// attached per BenchObserver() (off unless the env vars are set).
/// IBFS_THREADS sets the host worker count (default 1 = serial so a bench
/// box's wall-clock numbers stay comparable run to run; 0 = one worker per
/// hardware thread). Simulated results are bit-identical at any setting.
inline EngineOptions BaseOptions(Strategy strategy, GroupingPolicy grouping) {
  EngineOptions options;
  options.strategy = strategy;
  options.grouping = grouping;
  options.keep_depths = false;
  options.traversal.collect_instance_stats = false;
  options.observer = BenchObserver();
  options.threads = static_cast<int>(EnvInt64("IBFS_THREADS", 1));
  return options;
}

/// Runs the engine and dies on error (benches have no recovery path).
inline EngineResult MustRun(const graph::Csr& graph,
                            const EngineOptions& options,
                            std::span<const graph::VertexId> sources) {
  Engine engine(&graph, options);
  auto result = engine.Run(sources);
  IBFS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Uniform banner so the tee'd bench log reads like the paper's figures.
inline void PrintHeader(const char* exp_id, const char* description) {
  std::printf("=== %s: %s ===\n", exp_id, description);
  std::printf("(scaled graph presets; IBFS_SCALE=%d, see DESIGN.md §2)\n",
              gen::EnvScaleDelta());
}

/// Which direction of a `wall` metric is an improvement. Exact (`sim`,
/// `count`) metrics must match in either direction and record kLower.
enum class Better { kLower, kHigher };

/// One `ibfs.bench` v1 artifact, the format every committed BENCH_*.json
/// shares and tools/check_bench.py gates:
///   {schema, schema_version, bench, host{cpus, cpu_model, compiler,
///    build_type}, config{<ENV_VAR>: value}, repeats,
///    metrics[{name, unit, clock, better, value, spread}]}
/// Every knob a bench reads through Int/Double/String lands in `config`
/// under its environment-variable name, so the gate replays the recorded
/// workload by exporting `config` as the environment. Clocks:
///   sim    simulated-model output, a deterministic function of config;
///   count  an exact integer (counters, FNV-1a answer checksums), likewise
///          deterministic;
///   wall   depends on host timing; the gate bands it by `better`.
/// `spread` is max - min over `repeats` runs (0 for a single run). The
/// pass/fail invariants live in the benches themselves (IBFS_CHECK), so a
/// broken run exits nonzero before anything is written.
class BenchArtifact {
 public:
  explicit BenchArtifact(std::string bench) : bench_(std::move(bench)) {}

  int64_t Int(const char* env, int64_t def) {
    const int64_t value = EnvInt64(env, def);
    config_.emplace_back(env, std::to_string(value));
    return value;
  }
  double Double(const char* env, double def) {
    const double value = EnvDouble(env, def);
    config_.emplace_back(env, Number(value));
    return value;
  }
  std::string String(const char* env, const std::string& def) {
    std::string value = EnvString(env, def);
    std::ostringstream os;
    obs::WriteJsonString(os, value);
    config_.emplace_back(env, os.str());
    return value;
  }
  void set_repeats(int64_t repeats) { repeats_ = repeats; }

  void Sim(std::string name, std::string unit, double value) {
    Add(std::move(name), std::move(unit), "sim", Better::kLower,
        Number(value), 0.0);
  }
  void Count(std::string name, std::string unit, uint64_t value) {
    Add(std::move(name), std::move(unit), "count", Better::kLower,
        std::to_string(value), 0.0);
  }
  void Wall(std::string name, std::string unit, Better better, double value,
            double spread = 0.0) {
    Add(std::move(name), std::move(unit), "wall", better, Number(value),
        spread);
  }

  /// Writes to IBFS_BENCH_OUT (default BENCH_<bench>.json) and returns the
  /// process exit code.
  int Write() const {
    const std::string out =
        EnvString("IBFS_BENCH_OUT", "BENCH_" + bench_ + ".json");
    std::ofstream os(out, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
      return 1;
    }
    obs::JsonWriter w(os);
    w.BeginObject();
    w.Key("schema");
    w.String("ibfs.bench");
    w.Key("schema_version");
    w.Int(1);
    w.Key("bench");
    w.String(bench_);
    w.Key("host");
    w.BeginObject();
    w.Key("cpus");
    w.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
    w.Key("cpu_model");
    w.String(CpuModel());
    w.Key("compiler");
    w.String(IBFS_BENCH_COMPILER);
    w.Key("build_type");
    w.String(IBFS_BENCH_BUILD_TYPE);
    w.EndObject();
    w.Key("config");
    w.BeginObject();
    for (const auto& [env, value] : config_) {
      w.Key(env);
      w.Raw(value);
    }
    w.EndObject();
    w.Key("repeats");
    w.Int(repeats_);
    w.Key("metrics");
    w.BeginArray();
    for (const Metric& m : metrics_) {
      w.BeginObject();
      w.Key("name");
      w.String(m.name);
      w.Key("unit");
      w.String(m.unit);
      w.Key("clock");
      w.String(m.clock);
      w.Key("better");
      w.String(m.better == Better::kLower ? "lower" : "higher");
      w.Key("value");
      w.Raw(m.value);
      w.Key("spread");
      w.Double(m.spread);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    os << '\n';
    std::printf("wrote %s\n", out.c_str());
    return os ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    const char* clock;
    Better better;
    std::string value;  // serialized JSON number
    double spread;
  };

  static std::string Number(double value) {
    std::ostringstream os;
    obs::WriteJsonNumber(os, value);
    return os.str();
  }

  /// The "model name" line of /proc/cpuinfo, or "unknown".
  static std::string CpuModel() {
    std::ifstream is("/proc/cpuinfo");
    for (std::string line; std::getline(is, line);) {
      if (line.rfind("model name", 0) != 0) continue;
      const size_t colon = line.find(':');
      const size_t first = line.find_first_not_of(' ', colon + 1);
      if (colon != std::string::npos && first != std::string::npos) {
        return line.substr(first);
      }
    }
    return "unknown";
  }

  void Add(std::string name, std::string unit, const char* clock,
           Better better, std::string value, double spread) {
    metrics_.push_back({std::move(name), std::move(unit), clock, better,
                        std::move(value), spread});
  }

  std::string bench_;
  int64_t repeats_ = 1;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Metric> metrics_;
};

inline double ToBillions(double teps) { return teps / 1e9; }

}  // namespace ibfs::bench

#endif  // IBFS_BENCH_COMMON_H_
