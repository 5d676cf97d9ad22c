// Parallel-engine smoke: wall-clock speedup of host-side parallel group
// execution (EngineOptions::threads) on the Figure 15 bitwise workload.
// Runs the identical workload serially and with a worker pool, checks the
// simulated results are bit-identical (the bench aborts otherwise), and
// writes BENCH_parallel.json: the serial and parallel wall seconds, their
// speedup (read it against host.cpus), and the summed simulated seconds and
// load transactions as exact fingerprints.
// Environment knobs: IBFS_SCALE (default 0), IBFS_INSTANCES (default 512),
// IBFS_SMOKE_THREADS (default 4), IBFS_BENCH_OUT (default
// BENCH_parallel.json).
#include <chrono>
#include <numeric>
#include <vector>

#include "bench/common.h"
#include "util/thread_pool.h"

namespace ibfs::bench {
namespace {

struct PassResult {
  double wall_seconds = 0.0;
  // Deterministic fingerprints of the simulated run, compared bit-for-bit
  // between the serial and parallel passes.
  std::vector<double> sim_seconds;
  std::vector<double> teps;
  std::vector<int64_t> load_transactions;
};

PassResult RunPass(const std::vector<LoadedGraph>& graphs,
                   const std::vector<std::vector<graph::VertexId>>& sources,
                   int threads, int64_t group_size) {
  PassResult pass;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (GroupingPolicy grouping :
         {GroupingPolicy::kRandom, GroupingPolicy::kGroupBy}) {
      EngineOptions options = BaseOptions(Strategy::kBitwise, grouping);
      options.threads = threads;
      options.group_size = static_cast<int>(group_size);
      const EngineResult res = MustRun(graphs[i].graph, options, sources[i]);
      pass.sim_seconds.push_back(res.sim_seconds);
      pass.teps.push_back(res.teps);
      pass.load_transactions.push_back(res.totals.mem.load_transactions);
    }
  }
  pass.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return pass;
}

int Main() {
  PrintHeader("parallel smoke",
              "wall-clock speedup of parallel group execution (bitwise, "
              "random + groupby)");
  BenchArtifact out("parallel");
  out.Int("IBFS_SCALE", 0);
  const int64_t instances = out.Int("IBFS_INSTANCES", 512);
  // Smaller groups than the paper default so every pass has enough
  // schedulable units (instances/64 groups) to keep the pool busy.
  const int64_t group_size = 64;
  const int threads = static_cast<int>(out.Int("IBFS_SMOKE_THREADS", 4));

  const std::vector<LoadedGraph> graphs = LoadAll();
  std::vector<std::vector<graph::VertexId>> sources;
  sources.reserve(graphs.size());
  for (const LoadedGraph& lg : graphs) {
    sources.push_back(Sources(lg.graph, instances));
  }

  const PassResult serial = RunPass(graphs, sources, 1, group_size);
  const PassResult parallel = RunPass(graphs, sources, threads, group_size);

  // The tentpole claim: parallelism must not change the simulation, only
  // the wall clock. Any drift here is a determinism bug, so die loudly.
  bool deterministic = serial.sim_seconds == parallel.sim_seconds &&
                       serial.teps == parallel.teps &&
                       serial.load_transactions == parallel.load_transactions;
  IBFS_CHECK(deterministic)
      << "parallel run diverged from serial simulated results";

  const double speedup = parallel.wall_seconds > 0.0
                             ? serial.wall_seconds / parallel.wall_seconds
                             : 0.0;
  const int hardware = ThreadPool::HardwareConcurrency();
  std::printf("serial (1 thread):    %.3f s\n", serial.wall_seconds);
  std::printf("parallel (%d threads): %.3f s\n", threads,
              parallel.wall_seconds);
  std::printf("speedup:              %.2fx\n", speedup);
  std::printf("deterministic:        %s\n", deterministic ? "yes" : "NO");
  if (hardware < threads) {
    std::printf(
        "note: only %d hardware thread(s) available — wall-clock speedup "
        "is bounded by the host, not the engine\n",
        hardware);
  }

  out.Wall("serial_seconds", "s", Better::kLower, serial.wall_seconds);
  out.Wall("parallel_seconds", "s", Better::kLower, parallel.wall_seconds);
  out.Wall("speedup", "x", Better::kHigher, speedup);
  out.Count("runs", "runs", serial.sim_seconds.size());
  out.Sim("sim_seconds", "s",
          std::accumulate(serial.sim_seconds.begin(),
                          serial.sim_seconds.end(), 0.0));
  out.Count("load_transactions", "txn",
            std::accumulate(serial.load_transactions.begin(),
                            serial.load_transactions.end(), uint64_t{0}));
  return out.Write();
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
