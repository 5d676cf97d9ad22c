#include <algorithm>
#include <optional>
#include <vector>

#include "gpusim/warp.h"
#include "ibfs/bitwise_status_array.h"
#include "ibfs/level_observer.h"
#include "ibfs/status_array.h"
#include "ibfs/strategies.h"
#include "util/bitops.h"

namespace ibfs::internal_strategies {
namespace {

using graph::VertexId;

// Neighbors per schedulable top-down expansion item: high-degree frontiers
// are expanded by many thread groups in parallel (Enterprise-style
// classification), unlike bottom-up where one thread owns a frontier's
// serial parent scan — the imbalance Figure 11 measures.
constexpr int64_t kExpandChunk = 256;

// Bitwise iBFS (Section 6): the status of a vertex for all N instances is
// packed into ceil(N/64) words, so a single thread inspects a vertex for
// the whole group with a couple of OR instructions (Algorithm 1), and
// frontier identification is XOR / NOT over whole rows (Algorithm 2).
// Because the array accumulates *all* visited bits across levels, bottom-up
// inspection can stop as soon as a frontier's row is all ones — the early
// termination that MS-BFS's per-level reset forecloses.
//
// Accounting discipline: the inner loops charge nothing per neighbor —
// they count events in plain integers and flush through the scope's Bulk*
// / LoadRuns entry points at every item boundary, so the batched totals
// (and therefore max_item_cycles and the simulated seconds) are
// bit-identical to the former one-call-per-neighbor accounting.
//
// Partitioned (several views): each lane expands its owned slice of the
// JFQ, scans its owned bottom-up candidates and sweeps its owned rows. The
// status arrays stay read-only while the inspection kernels run; every
// lane ORs its updates into a private RowBuffer, and Exchange merges the
// buffers into cur_ in lane order. With one view the kernels write cur_
// in place, exactly as the single-device run always has.
class BitwiseProgram final : public LevelProgram {
 public:
  BitwiseProgram(const graph::Csr& graph,
                 std::span<const graph::VertexId> sources,
                 const TraversalOptions& options, std::vector<View> views);

  GroupResult Finish() override;

 private:
  // One partition's share of the level: its queue slice and the scratch
  // of its kernels.
  struct Lane {
    View view;
    gpusim::PhaseId td_phase;
    gpusim::PhaseId bu_phase;
    gpusim::PhaseId fq_phase;
    // Status rows all share one transaction shape (words_ x 8 bytes);
    // the aggregator memoizes their transaction counts across the run.
    gpusim::ContiguousRunAggregator row_loads;
    std::optional<gpusim::KernelScope> fq_scope{};
    std::vector<VertexId> jfq{};
    std::vector<uint64_t> jfq_masks{};
    // Scratch for the fused frontier-generation sweep: the speculative
    // top-down queue (swapped into jfq when top-down wins) and its masks.
    std::vector<VertexId> next_jfq{};
    std::vector<uint64_t> next_masks{};
    // Bottom-up candidate queue collected *inside* RunBottomUpLevel: each
    // item owns its row, so it knows at EndItem whether the row is still
    // unsaturated. When consecutive levels run bottom-up the frontier
    // generation swaps this in instead of rescanning every vertex (rows
    // only gain bits, so unsaturated rows are always a subset of the
    // current bottom-up queue — identical to the full scan's result).
    std::vector<VertexId> bu_next_jfq{};
    std::vector<uint64_t> bu_next_masks{};
    int64_t bu_private_sum = 0;
    int64_t td_private_sum = 0;
    int64_t private_sum = 0;
    int64_t new_visits = 0;
    int64_t inspections = 0;
    // Σ outdegrees of the (vertex, instance) pairs this lane's sweep found.
    int64_t new_frontier_edges = 0;
    // Partitioned only: the lane's updates until the exchange.
    std::optional<RowBuffer> found{};
  };

  void InitSources(std::span<const graph::VertexId> sources);
  void StartLevel();
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

  // Share mask of entry i of `lane`'s JFQ (which instances claim it — the
  // paper's per-frontier __ballot variable).
  std::span<const uint64_t> JfqMask(const Lane& lane, size_t i) const {
    return {lane.jfq_masks.data() + i * words_, static_cast<size_t>(words_)};
  }

  const graph::Csr& graph_;
  const TraversalOptions& options_;
  const int n_;
  const int words_;
  std::vector<Lane> lanes_;
  // Several views: kernels buffer their updates (see class comment).
  const bool buffered_;
  const bool collect_stats_;
  BitwiseStatusArray cur_;
  BitwiseStatusArray prev_;
  // One bit per vertex, set the moment a row gains a bit (by the kernels,
  // or by the exchange when partitioned). The frontier sweep walks only
  // these rows (in ascending vertex order, same as a full scan) instead of
  // XOR-scanning all V*words words; cleared by the sweep. Purely a
  // host-side shortcut — the simulated kernel still bills both full
  // status-array reads.
  std::vector<uint64_t> changed_rows_bm_;
  // Depth matrix in vertex-major order, depth of (v, j) at [v*n_ + j]:
  // the fused sweep discovers new bits row by row, so recording a row's
  // depths touches adjacent bytes instead of n_ distinct per-instance
  // arrays. Transposed into GroupResult's instance-major layout once, by
  // Finish.
  std::vector<uint8_t> depth_matrix_;
  GroupTrace trace_;
  LevelObserver level_observer_;
  LevelTrace lt_;

  int level_ = 1;
  bool bottom_up_ = false;
  bool was_bottom_up_ = false;
  // The level just inspected is the last one (no new visits, or
  // max_level reached); decided at the exchange.
  bool finishing_ = false;
  int64_t level_new_visits_ = 0;
  int64_t pending_private_fq_sum_ = 0;
  // Σ outdegrees of the (vertex, instance) pairs discovered at the level
  // that just ran — the candidate top-down frontier edge count.
  int64_t new_frontier_edges_ = 0;
  int64_t unexplored_edges_ = 0;
  // Every rank ships its owned BSA rows at the exchange.
  int64_t exchange_bytes_ = 0;
};

BitwiseProgram::BitwiseProgram(const graph::Csr& graph,
                               std::span<const graph::VertexId> sources,
                               const TraversalOptions& options,
                               std::vector<View> views)
    : graph_(graph),
      options_(options),
      n_(static_cast<int>(sources.size())),
      words_(static_cast<int>(CeilDiv(static_cast<uint64_t>(n_), 64))),
      buffered_(views.size() > 1),
      collect_stats_(options.collect_instance_stats && views.size() == 1),
      cur_(graph.vertex_count(), n_),
      prev_(graph.vertex_count(), n_),
      changed_rows_bm_(
          CeilDiv(static_cast<uint64_t>(graph.vertex_count()), 64), 0),
      level_observer_(options.observer, views.front().device),
      exchange_bytes_(WidestRowBytes(views, int64_t{8} * words_)) {
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
            words_, 8, spec.transaction_bytes, spec.warp_size)});
    if (buffered_) lane.found.emplace(graph.vertex_count(), words_);
  }
  InitSources(sources);
  StartLevel();
}

void BitwiseProgram::InitSources(std::span<const graph::VertexId> sources) {
  unexplored_edges_ = static_cast<int64_t>(n_) * graph_.edge_count();
  // Queue entries are unique owned vertices, so the owned range (and
  // range*words for the masks) bounds every frontier vector; reserving
  // once spares the hot push_back paths all reallocation for the rest of
  // the run.
  for (Lane& lane : lanes_) {
    const auto v_cap = static_cast<size_t>(lane.view.size());
    const size_t mask_cap = v_cap * static_cast<size_t>(words_);
    lane.jfq.reserve(v_cap);
    lane.next_jfq.reserve(v_cap);
    lane.bu_next_jfq.reserve(v_cap);
    lane.jfq_masks.reserve(mask_cap);
    lane.next_masks.reserve(mask_cap);
    lane.bu_next_masks.reserve(mask_cap);
  }
  if (options_.record_depths) {
    depth_matrix_.assign(
        static_cast<size_t>(graph_.vertex_count()) * n_, kUnvisitedDepth);
  }
  for (int j = 0; j < n_; ++j) {
    const VertexId s = sources[j];
    if (cur_.RowAllClear(s)) {
      // A source enters the queue slice of the lane that owns it.
      Lane* owner = &lanes_.front();
      for (Lane& lane : lanes_) {
        if (lane.view.owned.Contains(s)) owner = &lane;
      }
      owner->jfq.push_back(s);
      owner->jfq_masks.resize(owner->jfq_masks.size() + words_, 0);
    }
    cur_.SetBit(s, j);
    if (options_.record_depths) {
      depth_matrix_[static_cast<size_t>(s) * n_ + j] = 0;
    }
    new_frontier_edges_ += graph_.OutDegree(s);
    unexplored_edges_ -= graph_.OutDegree(s);
  }
  // Source share masks: all bits the source holds in cur_.
  for (Lane& lane : lanes_) {
    for (size_t i = 0; i < lane.jfq.size(); ++i) {
      const auto row = cur_.Row(lane.jfq[i]);
      std::copy(row.begin(), row.end(), lane.jfq_masks.begin() + i * words_);
    }
  }
  prev_.CopyFrom(cur_);
  pending_private_fq_sum_ = n_;
}

void BitwiseProgram::StartLevel() {
  lt_ = LevelTrace();
  lt_.level = level_;
  lt_.bottom_up = bottom_up_;
  for (const Lane& lane : lanes_) {
    lt_.jfq_size += static_cast<int64_t>(lane.jfq.size());
  }
  lt_.private_fq_sum = pending_private_fq_sum_;
  level_observer_.LevelStart(lt_.jfq_size);
}

template <bool kBuffered>
void BitwiseProgram::RunTopDownLevel(Lane& lane, gpusim::KernelScope* scope) {
  int64_t new_visits = 0;
  int64_t inspections = 0;
  if (options_.adjacency_cache) {
    scope->SetCtaSharedBytes(options_.cache_tile_bytes);
  }
  // Status-row loads run through the lane's memoizing aggregator and
  // drain at item boundaries.
  gpusim::ContiguousRunAggregator& row_loads = lane.row_loads;
  row_loads.Reset();
  const bool uniform_rows = row_loads.UniformAligned();
  // A neighbor's visited row is base|out: in place, out is cur_ itself;
  // buffered, base is the level-start cur_ and out the lane's updates.
  const uint64_t* const base = cur_.Words().data();
  uint64_t* const out =
      kBuffered ? lane.found->rows() : cur_.MutableWords().data();
  uint64_t* const bm = kBuffered ? lane.found->marks() : changed_rows_bm_.data();
  for (size_t i = 0; i < lane.jfq.size(); ++i) {
    const VertexId f = lane.jfq[i];
    scope->BeginItem();
    // One thread serves the whole group: load the frontier's full visited
    // mask (Algorithm 1 line 5 ORs BSA_k[f], not just the new bits — the
    // extra bits are harmless because their neighbors are already visited).
    if (uniform_rows) {
      row_loads.ObserveAlignedRuns(1);
    } else {
      row_loads.Observe(prev_.ElementIndex(f, 0));
    }
    const auto mask_f = prev_.Row(f);

    // Logical inspections: each instance sharing f inspects each edge.
    int share_count = 0;
    for (uint64_t word : JfqMask(lane, i)) share_count += PopCount(word);

    const auto neighbors = graph_.OutNeighbors(f);
    scope->LoadContiguous(
        static_cast<int64_t>(graph_.row_offsets()[f]) - lane.view.out_base,
        static_cast<int64_t>(neighbors.size()), sizeof(VertexId));
    if (options_.adjacency_cache) {
      scope->SharedBytes(static_cast<int64_t>(neighbors.size()) *
                         static_cast<int64_t>(sizeof(VertexId)));
    }

    // Updates are merged in shared memory within the CTA first (the
    // paper's scheme for avoiding per-neighbor atomic overhead); only
    // words that actually change are pushed to global memory with an
    // atomic OR — the synchronization MS-BFS's single-thread formulation
    // does not need (Section 6). Per neighbor that is 8*words_ shared
    // bytes + words_ ops + the changed-word atomics, accumulated here and
    // flushed at each item boundary.
    int64_t in_chunk = 0;
    int64_t chunk_atomics = 0;
    const auto flush_chunk = [&] {
      scope->LoadRuns(row_loads);
      row_loads.Reset();
      scope->BulkShared(in_chunk, 8 * words_);
      scope->BulkCompute(in_chunk, words_);
      scope->BulkAtomics(chunk_atomics);
      in_chunk = 0;
      chunk_atomics = 0;
    };
    if (words_ == 1) {
      // Whole-group state is a single word: one OR per neighbor, straight
      // off the flat word array. The chunk boundary is hoisted out of the
      // per-neighbor loop: process min(kExpandChunk - in_chunk, remaining)
      // neighbors back to back, then flush — the same item brackets the
      // per-neighbor form produces.
      const uint64_t mask = mask_f[0];
      const VertexId* const nb = neighbors.data();
      const int64_t n_nbrs = static_cast<int64_t>(neighbors.size());
      int64_t pos = 0;
      while (pos < n_nbrs) {
        if (in_chunk == kExpandChunk) {
          flush_chunk();
          scope->EndItem();
          scope->BeginItem();
        }
        const int64_t stop =
            std::min(n_nbrs, pos + (kExpandChunk - in_chunk));
        in_chunk += stop - pos;
        for (; pos < stop; ++pos) {
          const VertexId v = nb[pos];
          const uint64_t cell = kBuffered ? base[v] | out[v] : out[v];
          const uint64_t after = cell | mask;
          if (after != cell) {
            new_visits += PopCount(after ^ cell);
            out[v] = after;
            ++chunk_atomics;
            bm[static_cast<uint64_t>(v) >> 6] |= uint64_t{1} << (v & 63);
          }
        }
      }
    } else {
      for (VertexId v : neighbors) {
        if (in_chunk == kExpandChunk) {
          flush_chunk();
          scope->EndItem();
          scope->BeginItem();
        }
        ++in_chunk;
        const uint64_t* const base_v = base + static_cast<size_t>(v) * words_;
        uint64_t* const row_v = out + static_cast<size_t>(v) * words_;
        for (int w = 0; w < words_; ++w) {
          const uint64_t before = kBuffered ? base_v[w] | row_v[w] : row_v[w];
          const uint64_t after = before | mask_f[w];
          if (after != before) {
            row_v[w] = after;
            ++chunk_atomics;
            new_visits += PopCount(after ^ before);
            bm[static_cast<uint64_t>(v) >> 6] |= uint64_t{1} << (v & 63);
          }
        }
      }
    }
    flush_chunk();
    inspections +=
        static_cast<int64_t>(share_count) *
        static_cast<int64_t>(neighbors.size());
    scope->EndItem();
  }
  lane.new_visits = new_visits;
  lane.inspections = inspections;
}

template <bool kBuffered>
void BitwiseProgram::RunBottomUpLevel(Lane& lane, gpusim::KernelScope* scope) {
  const bool can_terminate_early =
      options_.early_termination && !options_.msbfs_reset;
  int64_t new_visits = 0;
  int64_t inspections = 0;
  lane.bu_next_jfq.clear();
  lane.bu_next_masks.clear();
  lane.bu_private_sum = 0;
  // Per-neighbor row loads drain through the lane's aggregator before
  // each EndItem.
  gpusim::ContiguousRunAggregator& row_loads = lane.row_loads;
  row_loads.Reset();
  // Row starts are always multiples of words_, so when the row span
  // divides the segment the whole neighbor scan is charged with one
  // ObserveAlignedRuns(scanned) call instead of one Observe per parent.
  const bool uniform_rows = row_loads.UniformAligned();
  // Row f is updated in place (cur_), or buffered: copied into the lane's
  // buffer and updated there.
  uint64_t* const out =
      kBuffered ? lane.found->rows() : cur_.MutableWords().data();
  uint64_t* const bm = kBuffered ? lane.found->marks() : changed_rows_bm_.data();
  const uint64_t last_valid = cur_.LastWordMask();
  for (VertexId f : lane.jfq) {
    scope->BeginItem();
    if (!uniform_rows) row_loads.Observe(cur_.ElementIndex(f, 0));
    uint64_t* const row_f = out + static_cast<size_t>(f) * words_;
    if constexpr (kBuffered) {
      const auto row = cur_.Row(f);
      std::copy(row.begin(), row.end(), row_f);
    }

    // Unset valid bits of row f (= logical inspections each neighbor scan
    // performs), kept incrementally: the early-termination test becomes
    // one integer compare per neighbor instead of an O(words) rescan.
    int64_t unset_bits = 0;
    for (int wi = 0; wi < words_; ++wi) {
      const uint64_t valid = wi + 1 == words_ ? last_valid : ~uint64_t{0};
      unset_bits += PopCount(~row_f[wi] & valid);
    }

    const auto neighbors = graph_.InNeighbors(f);
    int64_t scanned = 0;
    bool changed = false;
    if (words_ == 1) {
      const uint64_t valid = last_valid;
      const uint64_t* const pwords = prev_.Words().data();
      uint64_t row = row_f[0];
      // Inspections accrue at the *current* unset-bit count, which only
      // moves when the row gains bits — so the charge is accumulated per
      // stretch of unchanged scans (scan_base marks the stretch start)
      // instead of per neighbor. Same total, fewer adds.
      int64_t scan_base = 0;
      if (can_terminate_early && uniform_rows) {
        // Tightest form: rows entering the bottom-up queue are unsaturated
        // by construction (both queue builders filter all-ones rows and
        // bits only accumulate), so unset_bits > 0 until an update drives
        // it to zero — the early-termination test needs to run only inside
        // the update branch, not once per scanned neighbor. Breaking there
        // stops before the next scan, exactly where the per-neighbor test
        // would have stopped.
        const VertexId* const nbp = neighbors.data();
        const int64_t n_nbrs = static_cast<int64_t>(neighbors.size());
        int64_t idx = 0;
        bool terminated = false;
        // Exact scan of one neighbor; true when the row just saturated.
        const auto scan_one = [&](int64_t at) {
          const uint64_t after = row | (pwords[nbp[at]] & valid);
          if (after != row) {
            // Neighbor `at` itself was inspected at the pre-update count.
            inspections += unset_bits * (at + 1 - scan_base);
            scan_base = at + 1;
            const int added = PopCount(after ^ row);
            new_visits += added;
            unset_bits -= added;
            row = after;
            changed = true;
            return unset_bits == 0;
          }
          return false;
        };
        // Blocks of four parents whose combined words add nothing to the
        // row (the common case once the group saturates) are skipped with
        // one OR-tree and one compare; a block that would change the row
        // is replayed one parent at a time so the inspection stretches and
        // the early-termination point stay exact.
        while (idx + 4 <= n_nbrs) {
          const uint64_t blk = pwords[nbp[idx]] | pwords[nbp[idx + 1]] |
                               pwords[nbp[idx + 2]] | pwords[nbp[idx + 3]];
          if ((blk & valid & ~row) == 0) {
            idx += 4;
            continue;
          }
          const int64_t e = idx + 4;
          for (; idx < e; ++idx) {
            if (scan_one(idx)) {
              // Early termination: every instance has found f's parent;
              // the thread is freed for other frontiers (Section 6).
              ++idx;
              terminated = true;
              break;
            }
          }
          if (terminated) break;
        }
        while (!terminated && idx < n_nbrs) {
          if (scan_one(idx)) {
            ++idx;
            break;
          }
          ++idx;
        }
        scanned = idx;
      } else {
        for (VertexId w : neighbors) {
          if (can_terminate_early && unset_bits == 0) break;
          ++scanned;
          if (!uniform_rows) row_loads.Observe(w);
          const uint64_t after = row | (pwords[w] & valid);
          if (after != row) {
            inspections += unset_bits * (scanned - scan_base);
            scan_base = scanned;
            new_visits += PopCount(after ^ row);
            unset_bits -= PopCount(after ^ row);
            row = after;
            changed = true;
          }
        }
      }
      inspections += unset_bits * (scanned - scan_base);
      row_f[0] = row;
    } else {
      for (VertexId w : neighbors) {
        if (can_terminate_early && unset_bits == 0) break;
        ++scanned;
        if (!uniform_rows) row_loads.Observe(prev_.ElementIndex(w, 0));
        inspections += unset_bits;
        const auto row_w = prev_.Row(w);
        for (int wi = 0; wi < words_; ++wi) {
          const uint64_t before = row_f[wi];
          const uint64_t after = before | row_w[wi];
          if (after != before) {
            row_f[wi] = after;
            changed = true;
            new_visits += PopCount(after ^ before);
            unset_bits -= PopCount(after ^ before);
          }
        }
      }
    }
    if (unset_bits > 0) {
      // Row f is still unsaturated: it stays on the bottom-up frontier.
      // Recording it here (with its unvisited mask) is what lets a
      // bottom-up -> bottom-up transition skip the full-vertex rescan.
      lane.bu_next_jfq.push_back(f);
      for (int wi = 0; wi < words_; ++wi) {
        const uint64_t valid = wi + 1 == words_ ? last_valid : ~uint64_t{0};
        lane.bu_next_masks.push_back(~row_f[wi] & valid);
      }
      lane.bu_private_sum += unset_bits;
    }
    if (uniform_rows) {
      // scanned parent-row loads + the initial load of row f itself.
      row_loads.ObserveAlignedRuns(scanned + 1);
    }
    scope->BulkCompute(scanned, words_);
    scope->LoadRuns(row_loads);
    row_loads.Reset();
    scope->LoadContiguous(
        static_cast<int64_t>(graph_.in_row_offsets()[f]) - lane.view.in_base,
        scanned, sizeof(VertexId));
    if (changed) {
      // One thread owns row f: plain (non-atomic) write-back, as the
      // paper's warp/CTA tree-merging avoids atomics in bottom-up.
      scope->StoreContiguous(cur_.ElementIndex(f, 0), words_, 8);
      bm[static_cast<uint64_t>(f) >> 6] |= uint64_t{1} << (f & 63);
    } else if constexpr (kBuffered) {
      std::fill(row_f, row_f + words_, 0);
    }
    if (collect_stats_) {
      // One thread's bottom-up workload for this frontier: the number of
      // neighbors it scanned before early termination (or exhaustion).
      // The spread of these scan lengths is the warp imbalance Figure 11
      // reports; GroupBy narrows it because grouped instances fill the
      // row early and together.
      trace_.bottom_up_search_lengths.Add(static_cast<double>(scanned));
    }
    scope->EndItem();
  }
  lane.new_visits = new_visits;
  lane.inspections = inspections;
}

void BitwiseProgram::ChooseDirection() {
  if (options_.force_top_down) {
    bottom_up_ = false;
    return;
  }
  const int64_t n_pairs = static_cast<int64_t>(n_) * graph_.vertex_count();
  if (!bottom_up_) {
    if (new_frontier_edges_ >
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

void BitwiseProgram::Inspect(int p) {
  Lane& lane = lanes_[static_cast<size_t>(p)];
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

int64_t BitwiseProgram::Exchange() {
  level_new_visits_ = 0;
  lt_.edges_inspected = 0;
  for (Lane& lane : lanes_) {
    lt_.edges_inspected += lane.inspections;
    if (!buffered_) level_new_visits_ += lane.new_visits;
  }
  if (buffered_) {
    // OR every lane's updates into cur_ in lane order; the bits that land
    // are the level's new visits, whichever lane found them first.
    uint64_t* const cw = cur_.MutableWords().data();
    for (Lane& lane : lanes_) {
      lane.found->Drain([&](VertexId v, const uint64_t* row) {
        uint64_t* const cell = cw + static_cast<size_t>(v) * words_;
        bool changed = false;
        for (int w = 0; w < words_; ++w) {
          const uint64_t after = cell[w] | row[w];
          if (after != cell[w]) {
            level_new_visits_ += PopCount(after ^ cell[w]);
            cell[w] = after;
            changed = true;
          }
        }
        if (changed) changed_rows_bm_[v >> 6] |= uint64_t{1} << (v & 63);
      });
    }
  }
  finishing_ = level_new_visits_ == 0 || level_ >= options_.max_level;
  return exchange_bytes_;
}

void BitwiseProgram::Sweep(int p) {
  Lane& lane = lanes_[static_cast<size_t>(p)];
  gpusim::KernelScope* scope =
      &lane.fq_scope.emplace(lane.view.device->BeginKernel(lane.fq_phase));
  const int64_t owned_words = lane.view.size() * words_;

  // Fused sweep over the owned rows — newly visited bits (XOR of the
  // level's BSAs, Algorithm 2): one pass records depths, accumulates the
  // direction-heuristic sums AND builds the candidate top-down JFQ. The
  // direction cannot be chosen mid-sweep (it needs every lane's sums), so
  // the top-down queue is built speculatively into next_jfq/next_masks
  // and swapped in by Emit when top-down wins. The simulated kernel bills
  // both status-array reads up front.
  scope->LoadContiguous(0, owned_words, 8);
  scope->LoadContiguous(0, owned_words, 8);
  scope->Compute(owned_words);
  lane.new_frontier_edges = 0;
  lane.next_jfq.clear();
  lane.next_masks.clear();
  lane.td_private_sum = 0;
  // Only rows marked in changed_rows_bm_ can differ (ascending vertex
  // order — the order a flat scan would visit them), instead of
  // XOR-scanning all owned words. A marked row always holds a changed
  // word: marks are set only when an OR actually added bits, and bits are
  // never cleared within a level. One view clears the marks as it
  // consumes them; several views share boundary words, so Decide clears.
  const uint64_t* const cw = cur_.Words().data();
  const uint64_t* const pw = prev_.Words().data();
  const VertexId begin = lane.view.owned.begin;
  const VertexId end = lane.view.owned.end;
  const int64_t bm_begin = begin >> 6;
  const int64_t bm_end = (static_cast<int64_t>(end) + 63) >> 6;
  for (int64_t bwi = bm_begin; bwi < bm_end; ++bwi) {
    uint64_t marks = changed_rows_bm_[bwi];
    if (marks == 0) continue;
    if (buffered_) {
      if (bwi == bm_begin) marks &= ~uint64_t{0} << (begin & 63);
      if (bwi == bm_end - 1 && (end & 63) != 0) marks &= LowMask(end & 63);
    } else {
      changed_rows_bm_[bwi] = 0;
    }
    while (marks != 0) {
      const int64_t v = bwi * 64 + LowestSetBit(marks);
      marks &= marks - 1;
      const int64_t row = v * words_;
      const auto vid = static_cast<VertexId>(v);
      int new_bits = 0;
      uint8_t* const depth_row =
          options_.record_depths ? depth_matrix_.data() + v * n_ : nullptr;
      for (int w = 0; w < words_; ++w) {
        uint64_t diff = cw[row + w] ^ pw[row + w];
        lane.next_masks.push_back(diff);
        new_bits += PopCount(diff);
        if (depth_row != nullptr) {
          while (diff != 0) {
            const int bit = LowestSetBit(diff);
            diff &= diff - 1;
            depth_row[w * 64 + bit] = static_cast<uint8_t>(level_);
          }
        }
      }
      // new_bits > 0 by construction: this row contains a changed word.
      lane.new_frontier_edges +=
          static_cast<int64_t>(new_bits) * graph_.OutDegree(vid);
      lane.next_jfq.push_back(vid);
      lane.td_private_sum += new_bits;
      if (options_.record_depths) {
        // Depth write-out: one coalesced store touching v's depth row.
        scope->StoreContiguous((v - begin) * n_, new_bits, 1);
      }
    }
  }
}

void BitwiseProgram::Decide() {
  if (buffered_) std::fill(changed_rows_bm_.begin(), changed_rows_bm_.end(), 0);
  // Depths are recorded by the sweep even when terminating, so a max_level
  // truncation (the k-hop reachability workload) keeps its last level.
  if (finishing_) return;
  new_frontier_edges_ = 0;
  for (const Lane& lane : lanes_) new_frontier_edges_ += lane.new_frontier_edges;
  unexplored_edges_ -= new_frontier_edges_;
  was_bottom_up_ = bottom_up_;
  ChooseDirection();
  // BSA_{k+1} <- BSA_k (Algorithm 1 line 1). The simulated device streams
  // the whole array (charged by Emit); the host swaps the buffers (prev_
  // then holds the up-to-date state) and Emit re-copies into cur_ only
  // the rows this level changed — only those can differ.
  std::swap(cur_, prev_);
}

void BitwiseProgram::Emit(int p) {
  Lane& lane = lanes_[static_cast<size_t>(p)];
  gpusim::KernelScope* scope = &*lane.fq_scope;
  if (!finishing_) {
    for (VertexId v : lane.next_jfq) {
      const auto src = prev_.Row(v);
      std::copy(src.begin(), src.end(), cur_.MutableRow(v).begin());
    }
    if (!bottom_up_) {
      // Top-down frontier: any bit changed this level (XOR != 0) —
      // exactly the queue the sweep built. Swapping keeps the old vectors
      // as scratch capacity for the next level.
      lane.jfq.swap(lane.next_jfq);
      lane.jfq_masks.swap(lane.next_masks);
      lane.private_sum = lane.td_private_sum;
    } else if (was_bottom_up_) {
      // Bottom-up again: the level just run already recorded every row
      // that stayed unsaturated (rows only gain bits, so no vertex outside
      // the old queue can have become a candidate). Same queue, same
      // masks, same order as the full scan below — without re-reading the
      // rows.
      lane.jfq.swap(lane.bu_next_jfq);
      lane.jfq_masks.swap(lane.bu_next_masks);
      lane.private_sum = lane.bu_private_sum;
    } else {
      // Top-down -> bottom-up switch: any instance still unvisited (NOT
      // all-ones). This predicate reads the whole row, so it cannot ride
      // the XOR sweep, and after a top-down level no per-row record
      // exists — scan the owned rows.
      lane.jfq.clear();
      lane.jfq_masks.clear();
      lane.private_sum = 0;
      const uint64_t* const cw = cur_.Words().data();
      const uint64_t last_valid = cur_.LastWordMask();
      const int64_t begin = lane.view.owned.begin;
      const int64_t end = lane.view.owned.end;
      if (words_ == 1) {
        for (int64_t v = begin; v < end; ++v) {
          const uint64_t mask = ~cw[v] & last_valid;
          if (mask == 0) continue;
          lane.jfq.push_back(static_cast<VertexId>(v));
          lane.jfq_masks.push_back(mask);
          lane.private_sum += PopCount(mask);
        }
      } else {
        for (int64_t v = begin; v < end; ++v) {
          const int64_t row = v * words_;
          bool saturated = true;
          for (int w = 0; w < words_; ++w) {
            const uint64_t valid =
                w + 1 == words_ ? last_valid : ~uint64_t{0};
            if (cw[row + w] != valid) {
              saturated = false;
              break;
            }
          }
          if (saturated) continue;
          lane.jfq.push_back(static_cast<VertexId>(v));
          int unvisited = 0;
          for (int w = 0; w < words_; ++w) {
            const uint64_t valid =
                w + 1 == words_ ? last_valid : ~uint64_t{0};
            const uint64_t mask = ~cw[row + w] & valid;
            lane.jfq_masks.push_back(mask);
            unvisited += PopCount(mask);
          }
          lane.private_sum += unvisited;
        }
      }
    }

    // JFQ write-out: one enqueue per entry regardless of sharing.
    scope->StoreContiguous(0, static_cast<int64_t>(lane.jfq.size()),
                           sizeof(VertexId));
    scope->Atomic(
        (static_cast<int64_t>(lane.jfq.size()) + gpusim::kWarpSize - 1) /
        gpusim::kWarpSize);
    // The BSA_{k+1} <- BSA_k copy of the owned rows.
    const int64_t owned_words = lane.view.size() * words_;
    scope->LoadContiguous(0, owned_words, 8);
    scope->StoreContiguous(0, owned_words, 8);
    if (options_.msbfs_reset) {
      // MS-BFS-style per-level reset of the visit array: extra streaming
      // store (and the loss of early termination, handled in bottom-up).
      scope->StoreContiguous(0, owned_words, 8);
    }
  }
  lane.fq_scope.reset();
}

void BitwiseProgram::EndLevel() {
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

GroupResult BitwiseProgram::Finish() {
  GroupResult result;
  result.trace = std::move(trace_);
  result.trace.instance_count = n_;
  if (options_.record_depths) {
    // Blocked transpose of the vertex-major depth matrix into the
    // instance-major result layout: a 64-vertex block's rows (<= 4 KiB for
    // group sizes up to 64) stay cached across all n_ output columns.
    const int64_t n_vertices = graph_.vertex_count();
    result.depths.assign(
        n_, std::vector<uint8_t>(static_cast<size_t>(n_vertices)));
    constexpr int64_t kBlock = 64;
    for (int64_t v0 = 0; v0 < n_vertices; v0 += kBlock) {
      const int64_t v1 = std::min(n_vertices, v0 + kBlock);
      for (int j = 0; j < n_; ++j) {
        uint8_t* const out = result.depths[j].data();
        const uint8_t* const in = depth_matrix_.data() + j;
        for (int64_t v = v0; v < v1; ++v) {
          out[v] = in[static_cast<size_t>(v) * n_];
        }
      }
    }
  }
  return result;
}

}  // namespace

std::unique_ptr<LevelProgram> NewBitwiseProgram(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const TraversalOptions& options, std::vector<View> views) {
  return std::make_unique<BitwiseProgram>(graph, sources, options,
                                          std::move(views));
}

}  // namespace ibfs::internal_strategies
