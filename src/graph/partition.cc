#include "graph/partition.h"

#include <algorithm>

#include "util/logging.h"

namespace ibfs::graph {

int Partitioning::OwnerOf(VertexId v) const {
  const auto it = std::upper_bound(range_ends.begin(), range_ends.end(), v);
  IBFS_CHECK(it != range_ends.end()) << "vertex " << v << " outside ranges";
  return static_cast<int>(it - range_ends.begin());
}

double Partitioning::EdgeImbalance() const {
  if (parts.empty() || total_edges == 0) return 1.0;
  int64_t heaviest = 0;
  for (const GraphPartition& part : parts) {
    heaviest = std::max(heaviest, part.edges);
  }
  const double ideal = static_cast<double>(total_edges) /
                       static_cast<double>(parts.size());
  return ideal > 0.0 ? static_cast<double>(heaviest) / ideal : 1.0;
}

Result<Partitioning> PartitionByEdges1D(const Csr& graph, int partitions) {
  const int64_t vertices = graph.vertex_count();
  const int64_t edges = graph.edge_count();
  if (partitions < 1) {
    return Status::InvalidArgument("partitions must be >= 1");
  }
  if (vertices < partitions) {
    return Status::InvalidArgument(
        "partitions (" + std::to_string(partitions) +
        ") exceeds vertex count (" + std::to_string(vertices) + ")");
  }

  Partitioning result;
  result.total_edges = edges;
  result.parts.reserve(static_cast<size_t>(partitions));
  result.range_ends.reserve(static_cast<size_t>(partitions));

  const std::span<const EdgeIndex> offsets = graph.row_offsets();
  VertexId cursor = 0;
  for (int p = 0; p < partitions; ++p) {
    const int remaining_parts = partitions - p;
    VertexRange range;
    range.begin = cursor;
    if (p + 1 == partitions) {
      range.end = static_cast<VertexId>(vertices);
    } else {
      // Close this range once it owns its fair share of the edges still
      // unassigned, but never so greedily that a later partition would be
      // left without a vertex.
      const int64_t remaining_edges =
          edges - static_cast<int64_t>(offsets[cursor]);
      const int64_t target =
          (remaining_edges + remaining_parts - 1) / remaining_parts;
      const VertexId max_end =
          static_cast<VertexId>(vertices - (remaining_parts - 1));
      VertexId end = cursor + 1;  // every partition owns >= 1 vertex
      while (end < max_end &&
             static_cast<int64_t>(offsets[end] - offsets[range.begin]) <
                 target) {
        ++end;
      }
      range.end = end;
      cursor = end;
    }

    result.range_ends.push_back(range.end);
    result.parts.push_back(
        {p, range,
         static_cast<int64_t>(offsets[range.end] - offsets[range.begin])});
  }
  IBFS_CHECK(result.range_ends.back() == static_cast<VertexId>(vertices));
  return result;
}

}  // namespace ibfs::graph
