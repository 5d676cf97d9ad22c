#ifndef IBFS_GRAPH_PARTITION_H_
#define IBFS_GRAPH_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"

namespace ibfs::graph {

/// Deterministic 1D edge partitioning (Buluc & Madduri's row decomposition):
/// the vertex set is cut into P contiguous ranges chosen so each range owns
/// roughly |E| / P out-edges. Level-synchronous BFS then runs each level on
/// every partition against its owned edges and exchanges the discovered
/// frontier between levels — the first scenario class where the graph itself
/// does not fit one device. The cut depends only on (graph, P), never on
/// threads or traversal order, so partitioned runs are bit-reproducible.

/// Contiguous vertex range [begin, end) owned by one partition.
struct VertexRange {
  VertexId begin = 0;
  VertexId end = 0;

  int64_t size() const { return static_cast<int64_t>(end) - begin; }
  bool Contains(VertexId v) const { return v >= begin && v < end; }
};

/// One partition: its owned vertex range and the out-edges those vertices
/// own (read off the parent's row offsets; partitions run on views of the
/// parent CSR, so nothing is copied).
struct GraphPartition {
  int index = 0;
  VertexRange range;
  int64_t edges = 0;
};

/// A full 1D partitioning of one graph.
struct Partitioning {
  std::vector<GraphPartition> parts;
  /// ends[p] = parts[p].range.end; OwnerOf binary-searches this.
  std::vector<VertexId> range_ends;
  int64_t total_edges = 0;

  int partition_count() const { return static_cast<int>(parts.size()); }

  /// Owner partition of global vertex `v`.
  int OwnerOf(VertexId v) const;

  /// max(owned edges) / (total edges / P) — 1.0 is a perfect cut.
  double EdgeImbalance() const;
};

/// Cuts `graph` into `partitions` contiguous vertex ranges balanced by
/// out-edge count: a greedy prefix scan closes a range once it holds at
/// least (remaining edges) / (remaining partitions), so every partition is
/// non-empty in vertices whenever V >= P and the heaviest partition stays
/// within one vertex's degree of the ideal cut. Deterministic in (graph,
/// partitions). Fails on partitions < 1 or partitions > vertex count.
Result<Partitioning> PartitionByEdges1D(const Csr& graph, int partitions);

}  // namespace ibfs::graph

#endif  // IBFS_GRAPH_PARTITION_H_
