// Shared pieces of the repository benchmark: command-line arguments, the
// metric catalog and result printer, reference answers and their checker,
// percentiles, and the span log behind the traced run.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gen/benchmarks.h"
#include "graph/csr.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using ibfs::graph::VertexId;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget of the run (set-up not included).
  double seconds = 10.0;
  /// Traced run: record spans and report the per-layer metrics.
  bool trace = false;
  /// Short run for tests: one set-up and one capacity round.
  bool smoke = false;
  /// Flip one expected checksum before measuring, to show that a wrong
  /// answer fails the run.
  bool corrupt_expected = false;
  /// Chrome-trace file written at exit by a traced run ("" = none).
  std::string trace_out;

  /// Set-up repetitions; setup_s is their median.
  int setup_reps() const { return smoke ? 1 : 5; }
};

/// Linear interpolation between closest ranks, p in [0, 100]; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Ratio that reads 0 instead of dividing by zero.
inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// The metrics a run prints. Every name must be in the catalog (an unknown
/// name aborts, so a typo cannot add a metric nobody reads). A traced run
/// prints every per-layer metric; one the workload did not report prints
/// as 0, for a layer the workload never calls. test_perfbench.py lists the
/// metrics each workload must report as non-zero.
class Report {
 public:
  Report();
  void EndToEnd(std::string_view name, double value);
  void Layer(std::string_view name, double value);
  /// Extra facts printed beside the metrics (not compared by anything).
  void Note(std::string_view key, double value) { notes_[std::string(key)] = value; }

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints the RESULT line: stamps, outcome, both metric sets, notes.
  void Print(const Args& args) const;

 private:
  struct Value {
    std::string unit;
    double value = 0.0;
    bool set = false;
  };
  std::map<std::string, Value, std::less<>> end_to_end_;
  std::map<std::string, Value, std::less<>> layer_;
  std::map<std::string, double> notes_;
};

/// Reference answers: the FNV-1a checksum of baselines::ReferenceDepthsU8
/// for every distinct source a workload can ask about, computed once in
/// set-up on all cores.
class ReferenceAnswers {
 public:
  void Build(const ibfs::graph::Csr& graph, std::span<const VertexId> sources);
  /// Expected checksum of `source`; aborts when the source was never built.
  uint64_t Expected(VertexId source) const;
  size_t size() const { return expected_.size(); }
  /// Single-thread microseconds of one reference BFS (mean).
  double us_per_source() const { return us_per_source_; }
  /// Flips the expected checksum of `source` — the --corrupt-expected
  /// path that proves the check can fail.
  void Corrupt(VertexId source);

 private:
  std::unordered_map<VertexId, uint64_t> expected_;
  double us_per_source_ = 0.0;
};

/// Compares answers with the reference and counts the outcome.
class Checker {
 public:
  explicit Checker(const ReferenceAnswers* refs) : refs_(refs) {}
  bool Check(VertexId source, uint64_t checksum) {
    ++checked_;
    const bool ok = refs_->Expected(source) == checksum;
    if (!ok) ++mismatches_;
    return ok;
  }
  int64_t checked() const { return checked_; }
  int64_t mismatches() const { return mismatches_; }

 private:
  const ReferenceAnswers* refs_;
  int64_t checked_ = 0;
  int64_t mismatches_ = 0;
};

/// One workload's inputs: the graph, the sources it asks about, and their
/// reference answers.
struct Workbench {
  ibfs::graph::Csr graph;
  std::vector<VertexId> sources;
  ReferenceAnswers refs;
};

/// Generates benchmark `id` at `scale_delta`, picks the sources with
/// `pick`, and builds their reference answers, args.setup_reps() times.
/// Reports the median total as setup_s, the median generation time as
/// gen.generate_s, and the reference cost per source.
Workbench SetUp(
    const Args& args, ibfs::gen::BenchmarkId id, int scale_delta,
    const std::function<std::vector<VertexId>(const ibfs::graph::Csr&)>& pick,
    Report* report);

/// Trace pid of the benchmark's own host wall-clock tracks.
inline constexpr int kBenchPid = 3000;

/// Spans recorded from benchmark code around the library's public calls,
/// kept in an obs::Tracer and written as a Chrome trace at exit. A
/// disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);
  void Add(std::string_view name, Clock::time_point start,
           Clock::time_point end, int lane = 0);
  /// The tracer the spans go to. A serving workload also attaches it to the
  /// library's observer, so the library's own spans land in the same trace.
  ibfs::obs::Tracer* tracer() { return &tracer_; }
  /// Writes the Chrome trace; prints a warning on failure.
  void Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  ibfs::obs::Tracer tracer_;
};

/// Durations of the tracer's complete spans of `category`, summed by span
/// name, in seconds of the span's own clock (simulated seconds for the
/// gpusim "kernel" spans).
std::map<std::string, double, std::less<>> SpanSecondsByName(
    const ibfs::obs::Tracer& tracer, std::string_view category);

/// Peak resident set of this process, MB.
double PeakRssMb();

/// CPU seconds used so far by this process (all threads) and by the
/// calling thread. The kernel leaves out time the hypervisor stole from a
/// vCPU, so on a shared virtual machine these move with the work done, not
/// with the neighbours' load.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
