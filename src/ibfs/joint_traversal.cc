#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "gpusim/warp.h"
#include "ibfs/frontier_queue.h"
#include "ibfs/level_observer.h"
#include "ibfs/status_array.h"
#include "ibfs/strategies.h"
#include "util/bitops.h"

namespace ibfs::internal_strategies {
namespace {

using graph::VertexId;

// Neighbors per schedulable top-down expansion item (Enterprise-style
// parallel expansion of high-degree frontiers).
constexpr int64_t kExpandChunk = 256;

// Bytes of `row[0..n)` equal to `target`, counted eight at a time with the
// exact SWAR zero-byte test (no false positives from borrow propagation).
// This is the frontier predicate of every JSA row scan; one word op per 8
// instances replaces 8 byte compares.
inline int CountEqualBytes(const uint8_t* row, int n, uint8_t target) {
  constexpr uint64_t kLow = 0x0101010101010101ULL;
  constexpr uint64_t kMask7f = 0x7f7f7f7f7f7f7f7fULL;
  const uint64_t broadcast = kLow * target;
  int count = 0;
  int k = 0;
  for (; k + 8 <= n; k += 8) {
    uint64_t x;
    std::memcpy(&x, row + k, 8);
    const uint64_t z = x ^ broadcast;
    // Byte of y is 0x80 iff the corresponding byte of z is zero.
    const uint64_t y = ~((((z & kMask7f) + kMask7f) | z) | kMask7f);
    count += PopCount(y);
  }
  for (; k < n; ++k) count += row[k] == target;
  return count;
}

// Joint-traversal level program (Section 4): one kernel per level over a
// Joint Frontier Queue, with the Joint Status Array providing coalesced
// per-vertex status rows.
//
// Accounting discipline: the per-neighbor row loads/stores run through
// ContiguousRunAggregators (all rows share one shape: n_ one-byte
// elements) and compute ops accumulate in plain integers, flushed at every
// item boundary — bit-identical totals to the former per-call charges.
//
// Partitioned (several views): the JSA stays read-only while the
// inspection kernels run; each lane records the (vertex, instance) pairs
// it discovers in a private RowBuffer bitmap, and Exchange writes them
// into the JSA in lane order (with the direction sums). One view writes
// the JSA in place.
class JointProgram final : public LevelProgram {
 public:
  JointProgram(const graph::Csr& graph,
               std::span<const graph::VertexId> sources,
               const TraversalOptions& options, std::vector<View> views);

  GroupResult Finish() override;

 private:
  struct Lane {
    View view;
    gpusim::PhaseId td_phase;
    gpusim::PhaseId bu_phase;
    gpusim::PhaseId fq_phase;
    // Status rows all have the same transaction shape; the aggregators
    // memoize per-residue counts across the whole run.
    gpusim::ContiguousRunAggregator row_loads;
    gpusim::ContiguousRunAggregator row_stores;
    std::optional<gpusim::KernelScope> fq_scope{};
    FrontierQueue jfq{};
    // Instances a frontier is active for (kernel scratch).
    std::vector<int> active{};
    int64_t private_sum = 0;
    int64_t new_visits = 0;
    int64_t inspections = 0;
    // Direction sums of the lane's in-place updates (one view only).
    int64_t frontier_edges = 0;
    // Partitioned only: discovered (vertex, instance) bits.
    std::optional<RowBuffer> found{};
  };

  void InitSources(std::span<const graph::VertexId> sources);
  void StartLevel();
  // Expansion + inspection over the lane's JFQ slice for the current level.
  template <bool kBuffered>
  void RunTopDownLevel(Lane& lane, gpusim::KernelScope* scope);
  template <bool kBuffered>
  void RunBottomUpLevel(Lane& lane, gpusim::KernelScope* scope);
  void ChooseDirection();

  void Inspect(int p) override;
  int64_t Exchange() override;
  void Sweep(int p) override;
  void Decide() override;
  void Emit(int p) override;
  void EndLevel() override;

  const graph::Csr& graph_;
  const TraversalOptions& options_;
  const int n_;
  const int words_;
  std::vector<Lane> lanes_;
  const bool buffered_;
  const bool collect_stats_;
  JointStatusArray jsa_;
  GroupTrace trace_;
  std::vector<int64_t> bu_inspections_per_instance_;
  LevelObserver level_observer_;
  LevelTrace lt_;
  // Every rank ships its owned JSA rows (n_ bytes each) at the exchange.
  const int64_t exchange_bytes_;

  int level_ = 1;
  bool bottom_up_ = false;
  bool finishing_ = false;
  int64_t level_new_visits_ = 0;
  // Pending stats computed by the previous Emit for the level about to
  // run.
  int64_t pending_private_fq_sum_ = 0;
  // Direction-heuristic accumulators (summed over all instances).
  int64_t td_frontier_edges_ = 0;
  int64_t unexplored_edges_ = 0;
  int64_t visited_pairs_ = 0;
};

JointProgram::JointProgram(const graph::Csr& graph,
                           std::span<const graph::VertexId> sources,
                           const TraversalOptions& options,
                           std::vector<View> views)
    : graph_(graph),
      options_(options),
      n_(static_cast<int>(sources.size())),
      words_(static_cast<int>(CeilDiv(static_cast<uint64_t>(n_), 64))),
      buffered_(views.size() > 1),
      collect_stats_(options.collect_instance_stats && views.size() == 1),
      jsa_(graph.vertex_count(), n_),
      bu_inspections_per_instance_(n_, 0),
      level_observer_(options.observer, views.front().device),
      exchange_bytes_(WidestRowBytes(views, n_)) {
  lanes_.reserve(views.size());
  for (const View& view : views) {
    gpusim::Device* device = view.device;
    const gpusim::DeviceSpec& spec = device->spec();
    Lane& lane = lanes_.emplace_back(Lane{
        .view = view,
        .td_phase = device->InternPhase("td_inspect"),
        .bu_phase = device->InternPhase("bu_inspect"),
        .fq_phase = device->InternPhase("fq_gen"),
        .row_loads = gpusim::ContiguousRunAggregator(
            n_, 1, spec.transaction_bytes, spec.warp_size),
        .row_stores = gpusim::ContiguousRunAggregator(
            n_, 1, spec.transaction_bytes, spec.warp_size)});
    if (buffered_) lane.found.emplace(graph.vertex_count(), words_);
    lane.jfq.Reserve(view.size());
    lane.active.reserve(n_);
  }
  InitSources(sources);
  StartLevel();
}

void JointProgram::InitSources(std::span<const graph::VertexId> sources) {
  const int64_t e = graph_.edge_count();
  unexplored_edges_ = static_cast<int64_t>(n_) * e;
  for (int j = 0; j < n_; ++j) {
    const VertexId s = sources[j];
    if (!jsa_.IsVisited(s, j)) {
      // A vertex may serve as source for several instances; enqueue once,
      // into the queue slice of the lane that owns it.
      for (Lane& lane : lanes_) {
        if (!lane.view.owned.Contains(s)) continue;
        bool already_queued = false;
        for (VertexId q : lane.jfq.vertices()) already_queued |= (q == s);
        if (!already_queued) lane.jfq.Push(s);
      }
    }
    jsa_.SetDepth(s, j, 0);
    unexplored_edges_ -= graph_.OutDegree(s);
    ++visited_pairs_;
  }
  pending_private_fq_sum_ = n_;
}

void JointProgram::StartLevel() {
  lt_ = LevelTrace();
  lt_.level = level_;
  lt_.bottom_up = bottom_up_;
  for (const Lane& lane : lanes_) lt_.jfq_size += lane.jfq.size();
  lt_.private_fq_sum = pending_private_fq_sum_;
  level_observer_.LevelStart(lt_.jfq_size);
}

template <bool kBuffered>
void JointProgram::RunTopDownLevel(Lane& lane, gpusim::KernelScope* scope) {
  int64_t new_visits = 0;
  if (options_.adjacency_cache) {
    scope->SetCtaSharedBytes(options_.cache_tile_bytes);
  }
  std::vector<int>& active = lane.active;
  for (VertexId f : lane.jfq.vertices()) {
    scope->BeginItem();
    // All N contiguous threads read the frontier's status row: coalesced.
    scope->LoadContiguous(jsa_.ElementIndex(f, 0), n_, 1);
    active.clear();
    const auto row_f = jsa_.Row(f);
    for (int j = 0; j < n_; ++j) {
      if (row_f[j] == static_cast<uint8_t>(level_ - 1)) active.push_back(j);
    }
    scope->Compute(n_);
    if (active.empty()) {
      scope->EndItem();
      continue;
    }

    const auto neighbors = graph_.OutNeighbors(f);
    // The adjacency list is loaded from global memory once and served to
    // every instance from the shared-memory cache (Section 4). Without the
    // cache, each instance's threads reload it.
    const int64_t adj_start =
        static_cast<int64_t>(graph_.row_offsets()[f]) - lane.view.out_base;
    const int64_t deg = static_cast<int64_t>(neighbors.size());
    if (options_.adjacency_cache) {
      scope->LoadContiguous(adj_start, deg, sizeof(VertexId));
      scope->SharedBytes(deg * static_cast<int64_t>(sizeof(VertexId)));
    } else {
      for (size_t rep = 0; rep < active.size(); ++rep) {
        scope->LoadContiguous(adj_start, deg, sizeof(VertexId));
      }
    }

    // Per-neighbor charges accumulate below and flush at item boundaries:
    // one coalesced row load + 2 ops per active instance each, plus a row
    // store for neighbors that took an update.
    const int64_t ops_per_neighbor = 2 * static_cast<int64_t>(active.size());
    int64_t in_chunk = 0;
    const auto flush_chunk = [&] {
      scope->LoadRuns(lane.row_loads);
      lane.row_loads.Reset();
      scope->StoreRuns(lane.row_stores);
      lane.row_stores.Reset();
      scope->BulkCompute(in_chunk, ops_per_neighbor);
      in_chunk = 0;
    };
    for (VertexId w : neighbors) {
      // Large frontiers are expanded by many thread groups in parallel
      // (Enterprise's workload classification); re-open the schedulable
      // item every kExpandChunk neighbors so a hub does not serialize.
      if (in_chunk == kExpandChunk) {
        flush_chunk();
        scope->EndItem();
        scope->BeginItem();
      }
      ++in_chunk;
      // N contiguous threads inspect w's status row: one coalesced request.
      lane.row_loads.Observe(jsa_.ElementIndex(w, 0));
      int updates = 0;
      if constexpr (kBuffered) {
        const auto row_w = jsa_.Row(w);
        uint64_t* const found = lane.found->rows() + static_cast<size_t>(w) * words_;
        for (int j : active) {
          const uint64_t bit = uint64_t{1} << (j & 63);
          if (row_w[j] == kUnvisitedDepth && (found[j >> 6] & bit) == 0) {
            found[j >> 6] |= bit;
            ++updates;
          }
        }
        if (updates > 0) lane.found->Mark(w);
      } else {
        auto row_w = jsa_.MutableRow(w);
        for (int j : active) {
          if (row_w[j] == kUnvisitedDepth) {
            row_w[j] = static_cast<uint8_t>(level_);
            ++updates;
          }
        }
        if (updates > 0) {
          lane.frontier_edges +=
              static_cast<int64_t>(updates) * graph_.OutDegree(w);
        }
      }
      if (updates > 0) {
        new_visits += updates;
        // Updates from contiguous threads coalesce into one store request.
        lane.row_stores.Observe(jsa_.ElementIndex(w, 0));
      }
    }
    flush_chunk();
    lane.inspections +=
        static_cast<int64_t>(active.size()) * static_cast<int64_t>(deg);
    scope->EndItem();
  }
  lane.new_visits = new_visits;
}

template <bool kBuffered>
void JointProgram::RunBottomUpLevel(Lane& lane, gpusim::KernelScope* scope) {
  int64_t new_visits = 0;
  if (options_.adjacency_cache) {
    scope->SetCtaSharedBytes(options_.cache_tile_bytes);
  }
  std::vector<int>& active = lane.active;
  for (VertexId f : lane.jfq.vertices()) {
    scope->BeginItem();
    scope->LoadContiguous(jsa_.ElementIndex(f, 0), n_, 1);
    active.clear();
    const auto row_f = jsa_.Row(f);
    for (int j = 0; j < n_; ++j) {
      if (row_f[j] == kUnvisitedDepth) active.push_back(j);
    }
    scope->Compute(n_);

    const int64_t deg_f = graph_.OutDegree(f);
    const auto neighbors = graph_.InNeighbors(f);
    int64_t scanned = 0;
    int64_t item_ops = 0;
    int64_t updates = 0;
    for (VertexId w : neighbors) {
      // Each instance's thread exits as soon as it finds a parent; the
      // frontier is done when every instance has.
      if (active.empty()) break;
      ++scanned;
      lane.row_loads.Observe(jsa_.ElementIndex(w, 0));
      item_ops += 2 * static_cast<int64_t>(active.size());
      lane.inspections += static_cast<int64_t>(active.size());
      const auto row_w = jsa_.Row(w);
      size_t i = 0;
      while (i < active.size()) {
        const int j = active[i];
        if (collect_stats_) ++bu_inspections_per_instance_[j];
        if (row_w[j] < static_cast<uint8_t>(level_)) {
          if constexpr (kBuffered) {
            lane.found->rows()[static_cast<size_t>(f) * words_ + (j >> 6)] |= uint64_t{1}
                                                         << (j & 63);
          } else {
            jsa_.SetDepth(f, j, static_cast<uint8_t>(level_));
          }
          ++updates;
          if (collect_stats_) {
            // Parent found after `scanned` probes: one sample of the
            // bottom-up search-length distribution (Figure 11).
            trace_.bottom_up_search_lengths.Add(
                static_cast<double>(scanned));
          }
          active[i] = active.back();
          active.pop_back();
        } else {
          ++i;
        }
      }
    }
    scope->LoadRuns(lane.row_loads);
    lane.row_loads.Reset();
    scope->Compute(item_ops);
    if (updates > 0) {
      new_visits += updates;
      if constexpr (kBuffered) {
        lane.found->Mark(f);
      } else {
        lane.frontier_edges += updates * deg_f;
      }
    }
    if (collect_stats_) {
      // Searches that exhausted the neighbor list without finding a parent
      // also contribute their full scan length.
      for (size_t i = 0; i < active.size(); ++i) {
        trace_.bottom_up_search_lengths.Add(static_cast<double>(scanned));
      }
    }
    scope->LoadContiguous(
        static_cast<int64_t>(graph_.in_row_offsets()[f]) - lane.view.in_base,
        scanned, sizeof(VertexId));
    if (options_.adjacency_cache) {
      scope->SharedBytes(scanned * static_cast<int64_t>(sizeof(VertexId)));
    }
    if (updates > 0) {
      scope->StoreContiguous(jsa_.ElementIndex(f, 0), n_, 1);
    }
    scope->EndItem();
  }
  lane.new_visits = new_visits;
}

void JointProgram::ChooseDirection() {
  if (options_.force_top_down) {
    bottom_up_ = false;
    return;
  }
  const int64_t n_pairs =
      static_cast<int64_t>(n_) * graph_.vertex_count();
  if (!bottom_up_) {
    if (td_frontier_edges_ >
        static_cast<int64_t>(static_cast<double>(unexplored_edges_) /
                             options_.alpha)) {
      bottom_up_ = true;
    }
  } else {
    if (level_new_visits_ <
        static_cast<int64_t>(static_cast<double>(n_pairs) / options_.beta)) {
      bottom_up_ = false;
    }
  }
}

void JointProgram::Inspect(int p) {
  Lane& lane = lanes_[static_cast<size_t>(p)];
  lane.inspections = 0;
  lane.frontier_edges = 0;
  auto scope = lane.view.device->BeginKernel(bottom_up_ ? lane.bu_phase
                                                        : lane.td_phase);
  if (bottom_up_) {
    buffered_ ? RunBottomUpLevel<true>(lane, &scope)
              : RunBottomUpLevel<false>(lane, &scope);
  } else {
    buffered_ ? RunTopDownLevel<true>(lane, &scope)
              : RunTopDownLevel<false>(lane, &scope);
  }
}

int64_t JointProgram::Exchange() {
  // td_frontier_edges_ becomes the outdegree sum of the pairs discovered
  // at this level — exactly the candidate top-down frontier's edge count
  // (kept identical to the bitwise program's so both take the same
  // per-level decisions).
  level_new_visits_ = 0;
  td_frontier_edges_ = 0;
  lt_.edges_inspected = 0;
  for (const Lane& lane : lanes_) {
    lt_.edges_inspected += lane.inspections;
    if (buffered_) continue;
    level_new_visits_ += lane.new_visits;
    td_frontier_edges_ += lane.frontier_edges;
  }
  if (buffered_) {
    // Write every lane's discoveries in lane order; a pair two lanes found
    // counts once.
    const auto level = static_cast<uint8_t>(level_);
    for (Lane& lane : lanes_) {
      lane.found->Drain([&](VertexId v, const uint64_t* row) {
        auto status = jsa_.MutableRow(v);
        int64_t updates = 0;
        for (int w = 0; w < words_; ++w) {
          for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
            uint8_t& cell = status[w * 64 + LowestSetBit(bits)];
            if (cell != kUnvisitedDepth) continue;
            cell = level;
            ++updates;
          }
        }
        level_new_visits_ += updates;
        td_frontier_edges_ += updates * graph_.OutDegree(v);
      });
    }
  }
  unexplored_edges_ -= td_frontier_edges_;
  visited_pairs_ += level_new_visits_;
  finishing_ = level_new_visits_ == 0 || level_ >= options_.max_level;
  return exchange_bytes_;
}

void JointProgram::Sweep(int p) {
  Lane& lane = lanes_[static_cast<size_t>(p)];
  lane.fq_scope.emplace(lane.view.device->BeginKernel(lane.fq_phase));
}

void JointProgram::Decide() {
  if (!finishing_) ChooseDirection();
}

void JointProgram::Emit(int p) {
  Lane& lane = lanes_[static_cast<size_t>(p)];
  gpusim::KernelScope* scope = &*lane.fq_scope;
  lane.jfq.Clear();
  if (!finishing_) {
    lane.private_sum = 0;
    const uint8_t target =
        bottom_up_ ? kUnvisitedDepth : static_cast<uint8_t>(level_);
    for (VertexId v = lane.view.owned.begin; v < lane.view.owned.end; ++v) {
      // One warp scans each vertex's status row (Figure 4) and votes: the
      // SWAR byte match is the whole row's predicates + __any in word ops.
      lane.row_loads.Observe(jsa_.ElementIndex(v, 0));
      const int hits = CountEqualBytes(jsa_.Row(v).data(), n_, target);
      if (hits > 0) {
        lane.jfq.Push(v);
        lane.private_sum += hits;
      }
    }
    scope->LoadRuns(lane.row_loads);
    lane.row_loads.Reset();
    scope->BulkCompute(lane.view.size(), n_);
    // Shared frontiers are enqueued exactly once: the store (and its
    // atomic cursor bump) happens per JFQ entry, not per instance — the
    // saving of Figure 18.
    scope->StoreContiguous(0, lane.jfq.size(), sizeof(VertexId));
    scope->Atomic((lane.jfq.size() + gpusim::kWarpSize - 1) /
                  gpusim::kWarpSize);
  }
  lane.fq_scope.reset();
}

void JointProgram::EndLevel() {
  lt_.new_visits = level_new_visits_;
  if (finishing_) {
    finished_ = true;
  } else {
    pending_private_fq_sum_ = 0;
    bool empty = true;
    for (const Lane& lane : lanes_) {
      pending_private_fq_sum_ += lane.private_sum;
      empty = empty && lane.jfq.empty();
    }
    finished_ = empty;
    ++level_;
  }
  level_observer_.LevelEnd(lt_, bottom_up_, finished_);
  trace_.levels.push_back(lt_);
  if (!finished_) StartLevel();
}

GroupResult JointProgram::Finish() {
  GroupResult result;
  result.trace = std::move(trace_);
  result.trace.instance_count = n_;
  if (collect_stats_) {
    result.trace.bottom_up_inspections_per_instance =
        std::move(bu_inspections_per_instance_);
  }
  if (options_.record_depths) {
    result.depths.assign(n_, {});
    for (int j = 0; j < n_; ++j) {
      auto& d = result.depths[j];
      d.resize(static_cast<size_t>(graph_.vertex_count()));
      for (int64_t v = 0; v < graph_.vertex_count(); ++v) {
        d[v] = jsa_.Depth(static_cast<VertexId>(v), j);
      }
    }
  }
  return result;
}

}  // namespace

std::unique_ptr<LevelProgram> NewJointProgram(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const TraversalOptions& options, std::vector<View> views) {
  return std::make_unique<JointProgram>(graph, sources, options,
                                        std::move(views));
}

}  // namespace ibfs::internal_strategies
