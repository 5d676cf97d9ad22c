#include "ibfs/single_bfs.h"

#include <array>
#include <bit>

#include "gpusim/memory_model.h"
#include "gpusim/warp.h"

namespace ibfs {
namespace {

// Charges one warp-sized batch of random single-byte status probes.
class GatherBatcher {
 public:
  GatherBatcher(gpusim::KernelScope* scope, int elem_bytes)
      : scope_(scope), elem_bytes_(elem_bytes) {}

  void Add(int64_t element_index) {
    lanes_[count_++] = element_index;
    if (count_ == gpusim::kWarpSize) Flush();
  }

  void Flush() {
    if (count_ == 0) return;
    scope_->LoadGather({lanes_.data(), static_cast<size_t>(count_)},
                       elem_bytes_);
    count_ = 0;
  }

 private:
  gpusim::KernelScope* scope_;
  int elem_bytes_;
  std::array<int64_t, gpusim::kWarpSize> lanes_{};
  int count_ = 0;
};

// Same, for scattered stores.
class ScatterBatcher {
 public:
  ScatterBatcher(gpusim::KernelScope* scope, int elem_bytes)
      : scope_(scope), elem_bytes_(elem_bytes) {}

  void Add(int64_t element_index) {
    lanes_[count_++] = element_index;
    if (count_ == gpusim::kWarpSize) Flush();
  }

  void Flush() {
    if (count_ == 0) return;
    scope_->StoreGather({lanes_.data(), static_cast<size_t>(count_)},
                        elem_bytes_);
    count_ = 0;
  }

 private:
  gpusim::KernelScope* scope_;
  int elem_bytes_;
  std::array<int64_t, gpusim::kWarpSize> lanes_{};
  int count_ = 0;
};

}  // namespace

SingleBfs::SingleBfs(const graph::Csr& graph, graph::VertexId source,
                     const TraversalOptions& options,
                     std::span<const graph::VertexRange> owned)
    : graph_(graph), options_(options) {
  const auto n = static_cast<size_t>(graph.vertex_count());
  if (owned.empty()) {
    lanes_.push_back({.owned = {0, static_cast<graph::VertexId>(n)}});
  }
  for (const graph::VertexRange& range : owned) {
    lanes_.push_back(
        {.owned = range,
         .out_base = static_cast<int64_t>(graph.row_offsets()[range.begin]),
         .in_base =
             static_cast<int64_t>(graph.in_row_offsets()[range.begin])});
  }
  buffered_ = lanes_.size() > 1;
  depths_.assign(n, kUnvisitedDepth);
  depths_[source] = 0;
  if (buffered_) {
    for (Lane& lane : lanes_) lane.found.assign((n + 63) / 64, 0);
  } else {
    parents_.assign(n, graph::kInvalidVertex);
    parents_[source] = source;
  }
  for (Lane& lane : lanes_) {
    if (lane.owned.Contains(source)) lane.frontier.Push(source);
  }
  visited_count_ = 1;
  frontier_edges_ = graph.OutDegree(source);
  unexplored_edges_ = graph.edge_count() - frontier_edges_;
}

int64_t SingleBfs::frontier_size() const {
  int64_t size = 0;
  for (const Lane& lane : lanes_) size += lane.frontier.size();
  return size;
}

int64_t SingleBfs::RunLevel(gpusim::KernelScope* scope) {
  if (finished_) return 0;
  Inspect(0, scope);
  Exchange();
  return last_new_visits_;
}

void SingleBfs::GenerateNextFrontier(gpusim::KernelScope* scope) {
  if (finished_) return;
  Sweep(0, scope);
  Decide();
  Emit(0, scope);
  EndLevel();
}

void SingleBfs::Inspect(int p, gpusim::KernelScope* scope) {
  if (finished_) return;
  Lane& lane = lanes_[static_cast<size_t>(p)];
  buffered_ ? InspectLane<true>(lane, scope) : InspectLane<false>(lane, scope);
}

template <bool kBuffered>
void SingleBfs::InspectLane(Lane& lane, gpusim::KernelScope* scope) {
  int64_t new_visits = 0;
  int64_t inspections = 0;
  int64_t bu_inspections = 0;
  GatherBatcher status_loads(scope, /*elem_bytes=*/1);
  ScatterBatcher status_stores(scope, /*elem_bytes=*/1);
  // Partitioned, a discovery only marks the lane's bitmap; the exchange
  // writes the depths.
  uint64_t* const found = lane.found.data();

  if (!bottom_up_) {
    // Top-down: mark unvisited out-neighbors of each frontier. Large
    // frontiers are expanded by many thread groups in parallel
    // (Enterprise's workload classification), so the schedulable item is
    // re-opened every 256 neighbors.
    constexpr int64_t kExpandChunk = 256;
    for (graph::VertexId f : lane.frontier.vertices()) {
      scope->BeginItem();
      const auto neighbors = graph_.OutNeighbors(f);
      scope->LoadContiguous(
          static_cast<int64_t>(graph_.row_offsets()[f]) - lane.out_base,
          static_cast<int64_t>(neighbors.size()), sizeof(graph::VertexId));
      // The 2 ops per inspected neighbor accumulate per chunk and flush
      // before every item boundary — same totals at every EndItem snapshot
      // as charging them one by one.
      int64_t in_chunk = 0;
      for (graph::VertexId w : neighbors) {
        if (in_chunk == kExpandChunk) {
          scope->BulkCompute(in_chunk, 2);
          in_chunk = 0;
          scope->EndItem();
          scope->BeginItem();
        }
        ++in_chunk;
        ++inspections;
        status_loads.Add(w);
        if (depths_[w] != kUnvisitedDepth) continue;
        if constexpr (kBuffered) {
          const uint64_t bit = uint64_t{1} << (w & 63);
          if ((found[w >> 6] & bit) != 0) continue;
          found[w >> 6] |= bit;
        } else {
          depths_[w] = static_cast<uint8_t>(level_);
          parents_[w] = f;
        }
        status_stores.Add(w);
        ++new_visits;
      }
      scope->BulkCompute(in_chunk, 2);
      scope->EndItem();
    }
  } else {
    // Bottom-up: each unvisited vertex searches its in-neighbors for a
    // parent visited at an earlier level, stopping at the first hit.
    for (graph::VertexId v : lane.frontier.vertices()) {
      scope->BeginItem();
      const auto neighbors = graph_.InNeighbors(v);
      int64_t scanned = 0;
      for (graph::VertexId w : neighbors) {
        ++scanned;
        ++bu_inspections;
        ++inspections;
        status_loads.Add(w);
        if (depths_[w] < level_) {  // kUnvisitedDepth compares greater
          if constexpr (kBuffered) {
            found[v >> 6] |= uint64_t{1} << (v & 63);
          } else {
            depths_[v] = static_cast<uint8_t>(level_);
            parents_[v] = w;
          }
          status_stores.Add(v);
          ++new_visits;
          break;  // per-instance early exit inherent to bottom-up
        }
      }
      scope->BulkCompute(scanned, 2);
      scope->LoadContiguous(
          static_cast<int64_t>(graph_.in_row_offsets()[v]) - lane.in_base,
          scanned, sizeof(graph::VertexId));
      scope->EndItem();
    }
  }
  status_loads.Flush();
  status_stores.Flush();
  lane.new_visits = new_visits;
  lane.inspections = inspections;
  lane.bu_inspections = bu_inspections;
}

void SingleBfs::Exchange() {
  if (finished_) return;
  int64_t new_visits = 0;
  for (Lane& lane : lanes_) {
    total_inspections_ += lane.inspections;
    bu_inspections_ += lane.bu_inspections;
    if (!buffered_) new_visits += lane.new_visits;
  }
  if (buffered_) {
    // Merge the lanes' discoveries in lane order.
    for (Lane& lane : lanes_) {
      for (size_t wi = 0; wi < lane.found.size(); ++wi) {
        for (uint64_t bits = lane.found[wi]; bits != 0; bits &= bits - 1) {
          const size_t u = wi * 64 + static_cast<size_t>(std::countr_zero(bits));
          if (depths_[u] != kUnvisitedDepth) continue;
          depths_[u] = static_cast<uint8_t>(level_);
          ++new_visits;
        }
        lane.found[wi] = 0;
      }
    }
  }
  last_new_visits_ = new_visits;
  visited_count_ += new_visits;
  finishing_ = new_visits == 0 || level_ >= options_.max_level ||
               visited_count_ >= graph_.vertex_count();
}

void SingleBfs::Sweep(int p, gpusim::KernelScope* scope) {
  if (finished_ || finishing_) return;
  // Scan the owned status rows once: collect the newly visited set's stats
  // so the direction can be decided before materializing the queue.
  Lane& lane = lanes_[static_cast<size_t>(p)];
  scope->LoadContiguous(0, lane.owned.size(), /*elem_bytes=*/1);
  scope->Compute(lane.owned.size());
  lane.new_frontier_edges = 0;
  for (graph::VertexId v = lane.owned.begin; v < lane.owned.end; ++v) {
    if (depths_[v] == level_) lane.new_frontier_edges += graph_.OutDegree(v);
  }
}

void SingleBfs::Decide() {
  if (finished_ || finishing_) return;
  int64_t new_frontier_edges = 0;
  for (const Lane& lane : lanes_) new_frontier_edges += lane.new_frontier_edges;
  unexplored_edges_ -= new_frontier_edges;
  frontier_edges_ = new_frontier_edges;
  UpdateDirection();
}

void SingleBfs::Emit(int p, gpusim::KernelScope* scope) {
  if (finished_ || finishing_) return;
  Lane& lane = lanes_[static_cast<size_t>(p)];
  lane.frontier.Clear();
  const uint8_t target =
      bottom_up_ ? kUnvisitedDepth : static_cast<uint8_t>(level_);
  for (graph::VertexId v = lane.owned.begin; v < lane.owned.end; ++v) {
    if (depths_[v] == target) lane.frontier.Push(v);
  }
  scope->StoreContiguous(0, lane.frontier.size(), sizeof(graph::VertexId));
  scope->Atomic((lane.frontier.size() + gpusim::kWarpSize - 1) /
                gpusim::kWarpSize);
}

void SingleBfs::EndLevel() {
  if (finished_) return;
  if (finishing_ || frontier_size() == 0) {
    finished_ = true;
    for (Lane& lane : lanes_) lane.frontier.Clear();
  }
  if (!finishing_) ++level_;
}

void SingleBfs::UpdateDirection() {
  if (options_.force_top_down) {
    bottom_up_ = false;
    return;
  }
  const int64_t n = graph_.vertex_count();
  if (!bottom_up_) {
    // Frontier is "hot" enough that scanning unvisited vertices is cheaper.
    if (frontier_edges_ >
        static_cast<int64_t>(static_cast<double>(unexplored_edges_) /
                             options_.alpha)) {
      bottom_up_ = true;
    }
  } else {
    // Frontier (newly visited set) has shrunk: go back to top-down.
    if (last_new_visits_ <
        static_cast<int64_t>(static_cast<double>(n) / options_.beta)) {
      bottom_up_ = false;
    }
  }
}

}  // namespace ibfs
