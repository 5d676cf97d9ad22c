#include <memory>
#include <optional>
#include <vector>

#include "ibfs/single_bfs.h"
#include "ibfs/strategies.h"

namespace ibfs::internal_strategies {
namespace {

// All instances in flight at once as separate kernels (Hyper-Q style), with
// fully private data structures: the paper's "naive" concurrent BFS. The
// kernels of one level overlap on the device (the simulator folds their work
// into one accounting scope), but nothing is shared, each instance still
// pays its own launch, and at direction-switch levels every instance wants
// the whole machine — which is why the paper measures it at roughly
// sequential speed (Section 2). Partitioned runs exchange one frontier
// bitmap per active instance each level.
class NaiveProgram final : public LevelProgram {
 public:
  NaiveProgram(const graph::Csr& graph,
               std::span<const graph::VertexId> sources,
               const TraversalOptions& options, std::vector<View> views)
      : options_(options),
        views_(std::move(views)),
        range_bytes_(WidestBitmapBytes(views_)) {
    result_.trace.instance_count = static_cast<int>(sources.size());
    std::vector<graph::VertexRange> owned;  // empty: the whole graph
    // One interning per run; per-level kernel opens are then index lookups.
    for (const View& view : views_) {
      lanes_.push_back({view.device->InternPhase("td_inspect"),
                        view.device->InternPhase("bu_inspect"),
                        view.device->InternPhase("fq_gen"), std::nullopt});
      if (views_.size() > 1) owned.push_back(view.owned);
    }
    instances_.reserve(sources.size());
    for (graph::VertexId source : sources) {
      instances_.push_back(
          std::make_unique<SingleBfs>(graph, source, options, owned));
    }
    StartLevel();
  }

  GroupResult Finish() override {
    for (auto& bfs : instances_) {
      if (options_.collect_instance_stats && views_.size() == 1) {
        result_.trace.bottom_up_inspections_per_instance.push_back(
            bfs->bottom_up_inspections());
      }
      if (options_.record_parents && views_.size() == 1) {
        result_.parents.push_back(bfs->TakeParents());
      }
      result_.depths.push_back(bfs->TakeDepths());
    }
    return std::move(result_);
  }

 private:
  struct Lane {
    gpusim::PhaseId td_phase;
    gpusim::PhaseId bu_phase;
    gpusim::PhaseId fq_phase;
    std::optional<gpusim::KernelScope> fq_scope;
  };

  // Collects the level's active instances and its trace entry.
  void StartLevel() {
    active_.clear();
    for (auto& bfs : instances_) {
      if (!bfs->finished()) active_.push_back(bfs.get());
    }
    if (active_.empty()) {
      finished_ = true;
      return;
    }
    lt_ = LevelTrace();
    lt_.level = level_;
    for (SingleBfs* bfs : active_) {
      lt_.bottom_up = lt_.bottom_up || bfs->bottom_up();
      lt_.jfq_size += bfs->frontier_size();
      lt_.private_fq_sum += bfs->frontier_size();
      inspections_before_.push_back(bfs->total_inspections());
    }
  }

  // Expansion + inspection: one overlapping kernel per active instance,
  // routed into direction-tagged scopes.
  void Inspect(int p) override {
    const Lane& lane = lanes_[static_cast<size_t>(p)];
    gpusim::Device* device = views_[static_cast<size_t>(p)].device;
    auto td_scope = device->BeginKernel(lane.td_phase);
    auto bu_scope = device->BeginKernel(lane.bu_phase);
    int64_t td_kernels = 0;
    int64_t bu_kernels = 0;
    for (SingleBfs* bfs : active_) {
      const bool bottom_up = bfs->bottom_up();
      bfs->Inspect(p, bottom_up ? &bu_scope : &td_scope);
      ++(bottom_up ? bu_kernels : td_kernels);
    }
    if (td_kernels > 1) td_scope.ExtraLaunches(td_kernels - 1);
    if (bu_kernels > 1) bu_scope.ExtraLaunches(bu_kernels - 1);
  }

  int64_t Exchange() override {
    for (SingleBfs* bfs : active_) bfs->Exchange();
    return range_bytes_ * static_cast<int64_t>(active_.size());
  }

  // Frontier queue generation, again one kernel per active instance.
  void Sweep(int p) override {
    Lane& lane = lanes_[static_cast<size_t>(p)];
    gpusim::KernelScope* scope = &lane.fq_scope.emplace(
        views_[static_cast<size_t>(p)].device->BeginKernel(lane.fq_phase));
    for (SingleBfs* bfs : active_) bfs->Sweep(p, scope);
  }

  void Decide() override {
    for (SingleBfs* bfs : active_) bfs->Decide();
  }

  void Emit(int p) override {
    Lane& lane = lanes_[static_cast<size_t>(p)];
    for (SingleBfs* bfs : active_) bfs->Emit(p, &*lane.fq_scope);
    const auto kernels = static_cast<int64_t>(active_.size());
    if (kernels > 1) lane.fq_scope->ExtraLaunches(kernels - 1);
    lane.fq_scope.reset();
  }

  void EndLevel() override {
    for (size_t i = 0; i < active_.size(); ++i) {
      SingleBfs* bfs = active_[i];
      bfs->EndLevel();
      lt_.new_visits += bfs->last_new_visits();
      lt_.edges_inspected += bfs->total_inspections() - inspections_before_[i];
    }
    inspections_before_.clear();
    result_.trace.levels.push_back(lt_);
    ++level_;
    StartLevel();
  }

  const TraversalOptions& options_;
  std::vector<View> views_;
  std::vector<Lane> lanes_;
  // One instance's frontier bitmap per rank.
  const int64_t range_bytes_;
  std::vector<std::unique_ptr<SingleBfs>> instances_;
  std::vector<SingleBfs*> active_;
  std::vector<int64_t> inspections_before_;
  GroupResult result_;
  LevelTrace lt_;
  int level_ = 1;
};

}  // namespace

std::unique_ptr<LevelProgram> NewNaiveProgram(
    const graph::Csr& graph, std::span<const graph::VertexId> sources,
    const TraversalOptions& options, std::vector<View> views) {
  return std::make_unique<NaiveProgram>(graph, sources, options,
                                        std::move(views));
}

}  // namespace ibfs::internal_strategies
