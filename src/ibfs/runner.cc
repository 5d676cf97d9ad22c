#include "ibfs/runner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ibfs/level_program.h"
#include "ibfs/strategies.h"

namespace ibfs {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSequential:
      return "sequential";
    case Strategy::kNaiveConcurrent:
      return "naive";
    case Strategy::kJointTraversal:
      return "joint";
    case Strategy::kBitwise:
      return "bitwise";
  }
  return "unknown";
}

void LevelProgram::Step(const ForEachPartition& each,
                        const ExchangeHook& exchange) {
  each([this](int64_t p) { Inspect(static_cast<int>(p)); });
  exchange(Exchange());
  each([this](int64_t p) { Sweep(static_cast<int>(p)); });
  Decide();
  each([this](int64_t p) { Emit(static_cast<int>(p)); });
  EndLevel();
}

Result<std::unique_ptr<LevelProgram>> NewLevelProgram(
    Strategy strategy, const graph::Csr& graph,
    std::span<const graph::VertexId> sources, const TraversalOptions& options,
    std::span<const graph::VertexRange> owned,
    std::span<gpusim::Device> devices) {
  if (sources.empty()) {
    return Status::InvalidArgument("group must contain at least one source");
  }
  for (graph::VertexId s : sources) {
    if (static_cast<int64_t>(s) >= graph.vertex_count()) {
      return Status::OutOfRange("source " + std::to_string(s) +
                                " outside vertex range");
    }
  }
  if (options.max_level < 1 ||
      options.max_level > TraversalOptions::kMaxTraversalLevel) {
    return Status::InvalidArgument("max_level out of range");
  }
  if (options.alpha <= 0.0 || options.beta <= 0.0) {
    return Status::InvalidArgument("direction parameters must be positive");
  }
  if (owned.empty() || owned.size() != devices.size()) {
    return Status::InvalidArgument("need one device per partition view");
  }
  std::vector<internal_strategies::View> views;
  graph::VertexId next = 0;
  for (size_t p = 0; p < owned.size(); ++p) {
    if (owned[p].begin != next || owned[p].size() <= 0) {
      return Status::InvalidArgument("partition views must tile [0, V)");
    }
    next = owned[p].end;
    views.push_back({owned[p], &devices[p],
                     static_cast<int64_t>(graph.row_offsets()[owned[p].begin]),
                     static_cast<int64_t>(
                         graph.in_row_offsets()[owned[p].begin])});
  }
  if (static_cast<int64_t>(next) != graph.vertex_count()) {
    return Status::InvalidArgument("partition views must tile [0, V)");
  }

  switch (strategy) {
    case Strategy::kSequential:
      return internal_strategies::NewSequentialProgram(graph, sources, options,
                                                       std::move(views));
    case Strategy::kNaiveConcurrent:
      return internal_strategies::NewNaiveProgram(graph, sources, options,
                                                  std::move(views));
    case Strategy::kJointTraversal:
      return internal_strategies::NewJointProgram(graph, sources, options,
                                                  std::move(views));
    case Strategy::kBitwise:
      return internal_strategies::NewBitwiseProgram(graph, sources, options,
                                                    std::move(views));
  }
  return Status::InvalidArgument("unknown strategy");
}

Result<GroupResult> RunGroup(Strategy strategy, const graph::Csr& graph,
                             std::span<const graph::VertexId> sources,
                             const TraversalOptions& options,
                             gpusim::Device* device) {
  if (device == nullptr) {
    return Status::InvalidArgument("device must not be null");
  }
  // The single-device run is the one-view program over [0, V).
  const graph::VertexRange whole{
      0, static_cast<graph::VertexId>(graph.vertex_count())};
  Result<std::unique_ptr<LevelProgram>> program = NewLevelProgram(
      strategy, graph, sources, options, {&whole, 1}, {device, 1});
  IBFS_RETURN_NOT_OK(program.status());
  LevelProgram& run = *program.value();
  const ForEachPartition serial = [](const std::function<void(int64_t)>& fn) {
    fn(0);
  };
  const ExchangeHook no_exchange = [](int64_t) {};
  while (!run.finished()) run.Step(serial, no_exchange);
  return run.Finish();
}

namespace internal_strategies {

int64_t WidestBitmapBytes(std::span<const View> views) {
  int64_t widest = 0;
  for (const View& view : views) {
    const int64_t wbeg = view.owned.begin / 64;
    const int64_t wend = (static_cast<int64_t>(view.owned.end) + 63) / 64;
    widest = std::max(widest, wend - wbeg);
  }
  return widest * 8;
}

int64_t WidestRowBytes(std::span<const View> views, int64_t bytes_per_vertex) {
  int64_t widest = 0;
  for (const View& view : views) widest = std::max(widest, view.size());
  return widest * bytes_per_vertex;
}

}  // namespace internal_strategies
}  // namespace ibfs
