#ifndef IBFS_IBFS_STRATEGIES_H_
#define IBFS_IBFS_STRATEGIES_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "ibfs/level_program.h"
#include "ibfs/runner.h"
#include "util/bitops.h"

namespace ibfs::internal_strategies {

/// One partition view as the kernels see it: the owned range, the device
/// the partition's kernels charge, and the adjacency offsets of the range
/// start (the local CSR's address origin).
struct View {
  graph::VertexRange owned;
  gpusim::Device* device = nullptr;
  int64_t out_base = 0;
  int64_t in_base = 0;

  int64_t size() const { return owned.size(); }
};

/// Bytes of the widest owned range: as bitmap words (one bit per vertex),
/// and as `bytes_per_vertex`-byte rows. Collectives move symmetric slices,
/// so every rank pays for the widest one.
int64_t WidestBitmapBytes(std::span<const View> views);
int64_t WidestRowBytes(std::span<const View> views, int64_t bytes_per_vertex);

/// One partition's private discoveries between its inspection kernel and
/// the level's exchange: `words` status words per vertex row (none for a
/// plain one-bit-per-vertex set) plus one mark bit per touched row.
class RowBuffer {
 public:
  RowBuffer(int64_t vertex_count, int words)
      : words_(words),
        rows_(static_cast<size_t>(vertex_count) * words, 0),
        marks_(static_cast<size_t>((vertex_count + 63) / 64), 0) {}

  uint64_t* rows() { return rows_.data(); }
  uint64_t* marks() { return marks_.data(); }
  bool Marked(graph::VertexId v) const {
    return (marks_[v >> 6] >> (v & 63)) & 1;
  }
  void Mark(graph::VertexId v) { marks_[v >> 6] |= uint64_t{1} << (v & 63); }

  /// Calls fn(v, row) for every marked row in ascending vertex order, then
  /// clears the row and its mark.
  template <typename Fn>
  void Drain(Fn&& fn) {
    for (size_t wi = 0; wi < marks_.size(); ++wi) {
      uint64_t m = marks_[wi];
      marks_[wi] = 0;
      while (m != 0) {
        const auto v = static_cast<graph::VertexId>(
            wi * 64 + static_cast<size_t>(LowestSetBit(m)));
        m &= m - 1;
        uint64_t* row = rows_.data() + static_cast<size_t>(v) * words_;
        fn(v, row);
        std::fill(row, row + words_, 0);
      }
    }
  }

 private:
  int words_;
  std::vector<uint64_t> rows_;
  std::vector<uint64_t> marks_;
};

/// Per-strategy level programs behind NewLevelProgram(). Inputs are
/// validated by the dispatcher; each may assume sources are in range, the
/// group is non-empty and the views tile [0, V).

std::unique_ptr<LevelProgram> NewSequentialProgram(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const TraversalOptions& options, std::vector<View> views);

std::unique_ptr<LevelProgram> NewNaiveProgram(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const TraversalOptions& options, std::vector<View> views);

std::unique_ptr<LevelProgram> NewJointProgram(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const TraversalOptions& options, std::vector<View> views);

std::unique_ptr<LevelProgram> NewBitwiseProgram(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const TraversalOptions& options, std::vector<View> views);

}  // namespace ibfs::internal_strategies

#endif  // IBFS_IBFS_STRATEGIES_H_
