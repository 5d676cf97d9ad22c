#include <memory>
#include <optional>
#include <vector>

#include "ibfs/single_bfs.h"
#include "ibfs/strategies.h"

namespace ibfs::internal_strategies {
namespace {

// Runs each instance's full BFS back to back: the paper's "sequential"
// baseline of Figure 15 (state-of-the-art single BFS, repeated i times).
// Every level of every instance pays its own kernel launches, and the
// private per-byte status probes coalesce poorly. A step of the program
// is one level of the current instance, so partitioned runs pay one
// exchange (that instance's frontier bitmap) per instance level.
class SequentialProgram final : public LevelProgram {
 public:
  SequentialProgram(const graph::Csr& graph,
                    std::span<const graph::VertexId> sources,
                    const TraversalOptions& options, std::vector<View> views)
      : graph_(graph),
        options_(options),
        sources_(sources.begin(), sources.end()),
        views_(std::move(views)),
        exchange_bytes_(WidestBitmapBytes(views_)) {
    result_.trace.instance_count = static_cast<int>(sources_.size());
    // One interning per run; per-level kernel opens are then index lookups.
    for (const View& view : views_) {
      lanes_.push_back({view.device->InternPhase("td_inspect"),
                        view.device->InternPhase("bu_inspect"),
                        view.device->InternPhase("fq_gen"), std::nullopt});
      if (views_.size() > 1) owned_.push_back(view.owned);
    }
    StartInstance();
  }

  GroupResult Finish() override { return std::move(result_); }

 private:
  struct Lane {
    gpusim::PhaseId td_phase;
    gpusim::PhaseId bu_phase;
    gpusim::PhaseId fq_phase;
    std::optional<gpusim::KernelScope> fq_scope;
  };

  void StartInstance() {
    const graph::VertexId source = sources_[next_source_++];
    bfs_.emplace(graph_, source, options_, owned_);
    StartLevel();
  }

  void StartLevel() {
    level_ = bfs_->level();
    bottom_up_ = bfs_->bottom_up();
    frontier_size_ = bfs_->frontier_size();
    inspections_before_ = bfs_->total_inspections();
  }

  void Inspect(int p) override {
    const Lane& lane = lanes_[static_cast<size_t>(p)];
    auto scope = views_[static_cast<size_t>(p)].device->BeginKernel(
        bottom_up_ ? lane.bu_phase : lane.td_phase);
    bfs_->Inspect(p, &scope);
  }

  int64_t Exchange() override {
    bfs_->Exchange();
    return exchange_bytes_;
  }

  void Sweep(int p) override {
    Lane& lane = lanes_[static_cast<size_t>(p)];
    bfs_->Sweep(p, &lane.fq_scope.emplace(
                       views_[static_cast<size_t>(p)].device->BeginKernel(
                           lane.fq_phase)));
  }

  void Decide() override { bfs_->Decide(); }

  void Emit(int p) override {
    Lane& lane = lanes_[static_cast<size_t>(p)];
    bfs_->Emit(p, &*lane.fq_scope);
    lane.fq_scope.reset();
  }

  void EndLevel() override {
    bfs_->EndLevel();
    // Merge this (instance, level) into the group trace. With private
    // queues nothing is shared, so the joint size equals the private sum.
    GroupTrace& trace = result_.trace;
    if (static_cast<size_t>(level_) > trace.levels.size()) {
      trace.levels.resize(level_);
    }
    LevelTrace& lt = trace.levels[level_ - 1];
    lt.level = level_;
    lt.bottom_up = lt.bottom_up || bottom_up_;
    lt.jfq_size += frontier_size_;
    lt.private_fq_sum += frontier_size_;
    lt.edges_inspected += bfs_->total_inspections() - inspections_before_;
    lt.new_visits += bfs_->last_new_visits();
    if (!bfs_->finished()) {
      StartLevel();
      return;
    }
    if (options_.collect_instance_stats && views_.size() == 1) {
      trace.bottom_up_inspections_per_instance.push_back(
          bfs_->bottom_up_inspections());
    }
    if (options_.record_parents && views_.size() == 1) {
      result_.parents.push_back(bfs_->TakeParents());
    }
    result_.depths.push_back(bfs_->TakeDepths());
    if (next_source_ < sources_.size()) {
      StartInstance();
    } else {
      finished_ = true;
    }
  }

  const graph::Csr& graph_;
  const TraversalOptions& options_;
  std::vector<graph::VertexId> sources_;
  std::vector<View> views_;
  std::vector<Lane> lanes_;
  // Empty with one view (the whole graph).
  std::vector<graph::VertexRange> owned_;
  // One instance's frontier bitmap per rank.
  const int64_t exchange_bytes_;
  size_t next_source_ = 0;
  std::optional<SingleBfs> bfs_;
  GroupResult result_;
  // The current level as it started.
  int level_ = 0;
  bool bottom_up_ = false;
  int64_t frontier_size_ = 0;
  int64_t inspections_before_ = 0;
};

}  // namespace

std::unique_ptr<LevelProgram> NewSequentialProgram(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const TraversalOptions& options, std::vector<View> views) {
  return std::make_unique<SequentialProgram>(graph, sources, options,
                                             std::move(views));
}

}  // namespace ibfs::internal_strategies
