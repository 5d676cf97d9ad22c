#ifndef IBFS_IBFS_LEVEL_PROGRAM_H_
#define IBFS_IBFS_LEVEL_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "gpusim/device.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "ibfs/runner.h"
#include "util/status.h"

namespace ibfs {

/// Calls fn(p) once for every partition p — serially or on a worker pool —
/// and returns when every call has finished.
using ForEachPartition =
    std::function<void(const std::function<void(int64_t)>& fn)>;

/// Called once per level at the frontier exchange with the bytes each rank
/// ships (the strategy's state for its owned range).
using ExchangeHook = std::function<void(int64_t bytes_per_rank)>;

/// One group's traversal under one strategy, stepped a BFS level at a time
/// over P partition views. View p is the parent graph plus the contiguous
/// vertex range owned[p]; partition p runs the strategy's own level kernels
/// on devices[p] over its owned share only: its slice of the frontier
/// queue (top-down), its candidate rows with their in-edges (bottom-up)
/// and its rows of the status sweep (fq_gen). Simulated addresses of
/// partition-local data (adjacency, queue, owned status rows, depths) are
/// rebased to the range start; the replicated status rows keep their
/// global index.
///
/// One level is: every partition's inspection kernel; the exchange, which
/// merges the partitions' discoveries into the one shared status array in
/// partition order, all-reduces the direction-switch scalars and calls the
/// hook; every partition's fq_gen kernel. Discoveries a partition makes
/// during inspection stay in private buffers until the exchange, so the
/// simulated counts never depend on host thread interleaving. With a
/// single view owning [0, V) there is nothing to buffer or exchange and
/// the program is exactly the single-device run of RunGroup.
class LevelProgram {
 public:
  virtual ~LevelProgram() = default;

  bool finished() const { return finished_; }

  /// Runs one level on every partition (see class comment).
  void Step(const ForEachPartition& each, const ExchangeHook& exchange);

  /// The group's result once finished() (or abandoned after a fault).
  virtual GroupResult Finish() = 0;

 protected:
  virtual void Inspect(int p) = 0;
  /// Serial. Returns the bytes each rank ships at this level's exchange.
  virtual int64_t Exchange() = 0;
  /// Opens partition p's fq_gen kernel and sweeps its owned rows.
  virtual void Sweep(int p) = 0;
  /// Serial: picks the next level's direction from the reduced sweep.
  virtual void Decide() = 0;
  /// Builds partition p's slice of the next queue; closes its kernel.
  virtual void Emit(int p) = 0;
  /// Serial: records the level and decides termination.
  virtual void EndLevel() = 0;

  bool finished_ = false;
};

/// Validates the inputs and builds the strategy's level
/// program over the views owned[p] on devices[p]. The ranges must be
/// non-empty, disjoint, ascending and cover [0, V). Several views keep no
/// parents and no per-instance host statistics (collect_instance_stats).
Result<std::unique_ptr<LevelProgram>> NewLevelProgram(
    Strategy strategy, const graph::Csr& graph,
    std::span<const graph::VertexId> sources, const TraversalOptions& options,
    std::span<const graph::VertexRange> owned,
    std::span<gpusim::Device> devices);

}  // namespace ibfs

#endif  // IBFS_IBFS_LEVEL_PROGRAM_H_
