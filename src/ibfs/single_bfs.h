#ifndef IBFS_IBFS_SINGLE_BFS_H_
#define IBFS_IBFS_SINGLE_BFS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "ibfs/frontier_queue.h"
#include "ibfs/runner.h"
#include "ibfs/status_array.h"

namespace ibfs {

/// State of one direction-optimizing BFS instance with private data
/// structures — the per-instance building block of the sequential and naive
/// concurrent strategies (and the B40C-like baseline). Mirrors the
/// Enterprise-style single BFS the paper builds on: top-down levels switch
/// to bottom-up by Beamer's heuristic, and every level performs expansion,
/// inspection, and frontier-queue generation.
class SingleBfs {
 public:
  /// Initializes a BFS from `source`. The graph must outlive this object.
  /// Partition p owns the vertex range owned[p] (the ranges tile [0, V);
  /// empty = the whole graph), expands its slice of the frontier and scans
  /// its owned rows. With several ranges, discoveries stay in a private
  /// per-partition bitmap until Exchange, and no parents are kept.
  SingleBfs(const graph::Csr& graph, graph::VertexId source,
            const TraversalOptions& options,
            std::span<const graph::VertexRange> owned = {});

  /// True once the traversal can make no further progress (or max_level
  /// was reached).
  bool finished() const { return finished_; }

  int level() const { return level_; }
  bool bottom_up() const { return bottom_up_; }

  /// Frontier count for the upcoming level.
  int64_t frontier_size() const;

  /// Runs expansion + inspection for the current level, charging memory
  /// traffic and compute to `scope`. Returns (vertex) visits made.
  int64_t RunLevel(gpusim::KernelScope* scope);

  /// Scans the status array to build the next level's frontier queue
  /// (charged to `scope`), updates the traversal direction, and advances
  /// the level counter.
  void GenerateNextFrontier(gpusim::KernelScope* scope);

  /// The level protocol of LevelProgram, one partition at a time: the
  /// inspection of partition p's frontier slice; the serial exchange (new
  /// visits, termination); the fq_gen sweep of p's owned rows; the serial
  /// direction choice; p's slice of the next queue; the serial level end.
  /// RunLevel and GenerateNextFrontier are these steps for one partition.
  void Inspect(int p, gpusim::KernelScope* scope);
  void Exchange();
  void Sweep(int p, gpusim::KernelScope* scope);
  void Decide();
  void Emit(int p, gpusim::KernelScope* scope);
  void EndLevel();

  /// Visits the last Exchange counted.
  int64_t last_new_visits() const { return last_new_visits_; }

  /// Depths after (or during) traversal; kUnvisitedDepth when unreached.
  const std::vector<uint8_t>& depths() const { return depths_; }
  std::vector<uint8_t> TakeDepths() { return std::move(depths_); }

  /// BFS-tree parents (kInvalidVertex when unreached; the source is its
  /// own parent). Maintained alongside the depths at one extra store per
  /// discovery.
  const std::vector<graph::VertexId>& parents() const { return parents_; }
  std::vector<graph::VertexId> TakeParents() { return std::move(parents_); }

  /// Neighbor checks performed during bottom-up levels (Figure 11 metric).
  int64_t bottom_up_inspections() const { return bu_inspections_; }
  /// Neighbor checks performed over the whole traversal.
  int64_t total_inspections() const { return total_inspections_; }

 private:
  // One partition's frontier slice and level scratch.
  struct Lane {
    graph::VertexRange owned;
    int64_t out_base = 0;
    int64_t in_base = 0;
    FrontierQueue frontier{};
    int64_t new_visits = 0;
    int64_t inspections = 0;
    int64_t bu_inspections = 0;
    int64_t new_frontier_edges = 0;
    // Partitioned only: vertices discovered this level.
    std::vector<uint64_t> found{};
  };

  template <bool kBuffered>
  void InspectLane(Lane& lane, gpusim::KernelScope* scope);
  void UpdateDirection();

  const graph::Csr& graph_;
  TraversalOptions options_;
  std::vector<Lane> lanes_;
  bool buffered_ = false;
  std::vector<uint8_t> depths_;
  std::vector<graph::VertexId> parents_;
  int level_ = 1;          // level being discovered by the next Inspect
  bool bottom_up_ = false;
  bool finished_ = false;
  // The level just inspected is the last one (decided at Exchange).
  bool finishing_ = false;
  int64_t visited_count_ = 0;
  int64_t frontier_edges_ = 0;    // sum of outdegrees of current frontier
  int64_t unexplored_edges_ = 0;  // sum of outdegrees of unvisited vertices
  int64_t last_new_visits_ = 0;
  int64_t bu_inspections_ = 0;
  int64_t total_inspections_ = 0;
};

}  // namespace ibfs

#endif  // IBFS_IBFS_SINGLE_BFS_H_
