// Randomized stress tests: random graphs (including pathological shapes)
// through every strategy, checked against the structural BFS validator
// and the reference oracle. Catches crashes and invariant breaks that
// fixed fixtures miss.
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "baselines/cpu_bfs.h"
#include "baselines/reference_bfs.h"
#include "core/validate.h"
#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "gtest/gtest.h"
#include "ibfs/runner.h"
#include "obs/slo.h"
#include "util/prng.h"

namespace ibfs {
namespace {

using graph::Csr;
using graph::VertexId;

// Random graph with a seed-dependent shape: size, density, direction mix,
// self-loops, multi-edges (deduped by the builder), isolated vertices.
Csr FuzzGraph(uint64_t seed) {
  Prng prng(seed);
  const int64_t n = 2 + static_cast<int64_t>(prng.NextBounded(200));
  const int64_t m = prng.NextBounded(static_cast<uint64_t>(4 * n) + 1);
  const bool undirected = prng.NextBool(0.5);
  graph::GraphBuilder builder(n);
  for (int64_t e = 0; e < m; ++e) {
    const auto u = static_cast<VertexId>(prng.NextBounded(n));
    const auto v = prng.NextBool(0.05)
                       ? u  // occasional self-loop
                       : static_cast<VertexId>(prng.NextBounded(n));
    if (undirected) {
      builder.AddUndirectedEdge(u, v);
    } else {
      builder.AddEdge(u, v);
    }
  }
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

class FuzzStrategiesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzStrategiesTest, AllStrategiesMatchOracleAndValidate) {
  const uint64_t seed = GetParam();
  const Csr g = FuzzGraph(seed);
  Prng prng(seed ^ 0xF00D);
  std::vector<VertexId> sources;
  const int group = 1 + static_cast<int>(prng.NextBounded(70));
  for (int i = 0; i < group; ++i) {
    sources.push_back(static_cast<VertexId>(
        prng.NextBounded(static_cast<uint64_t>(g.vertex_count()))));
  }
  for (Strategy s : {Strategy::kSequential, Strategy::kNaiveConcurrent,
                     Strategy::kJointTraversal, Strategy::kBitwise}) {
    gpusim::Device device;
    auto result = RunGroup(s, g, sources, {}, &device);
    ASSERT_TRUE(result.ok()) << StrategyName(s);
    for (size_t j = 0; j < sources.size(); ++j) {
      ASSERT_TRUE(baselines::DepthsMatchReference(g, sources[j],
                                                  result.value().depths[j]))
          << StrategyName(s) << " seed " << seed << " instance " << j;
      ASSERT_TRUE(
          ValidateBfsDepths(g, sources[j], result.value().depths[j]).ok())
          << StrategyName(s) << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStrategiesTest,
                         ::testing::Range(uint64_t{100}, uint64_t{120}));

class FuzzCpuBaselinesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzCpuBaselinesTest, CpuBaselinesMatchOracle) {
  const uint64_t seed = GetParam();
  const Csr g = FuzzGraph(seed);
  Prng prng(seed ^ 0xBEEF);
  std::vector<VertexId> sources;
  const int group = 1 + static_cast<int>(prng.NextBounded(70));
  for (int i = 0; i < group; ++i) {
    sources.push_back(static_cast<VertexId>(
        prng.NextBounded(static_cast<uint64_t>(g.vertex_count()))));
  }
  baselines::CpuCostModel cpu;
  auto ms = baselines::RunMsBfs(g, sources, {}, &cpu);
  auto ib = baselines::RunCpuIbfs(g, sources, {}, &cpu);
  ASSERT_TRUE(ms.ok() && ib.ok());
  for (size_t j = 0; j < sources.size(); ++j) {
    ASSERT_TRUE(baselines::DepthsMatchReference(g, sources[j],
                                                ms.value().depths[j]))
        << "ms-bfs seed " << seed;
    ASSERT_TRUE(baselines::DepthsMatchReference(g, sources[j],
                                                ib.value().depths[j]))
        << "cpu-ibfs seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCpuBaselinesTest,
                         ::testing::Range(uint64_t{200}, uint64_t{212}));

TEST(FuzzEdgeCasesTest, TwoVertexGraphs) {
  // Smallest interesting graphs: isolated pair, single edge, self-loop.
  for (int variant = 0; variant < 3; ++variant) {
    graph::GraphBuilder builder(2);
    if (variant == 1) builder.AddEdge(0, 1);
    if (variant == 2) builder.AddEdge(0, 0);
    auto g = std::move(builder).Build();
    ASSERT_TRUE(g.ok());
    const std::vector<VertexId> sources = {0, 1};
    for (Strategy s : {Strategy::kSequential, Strategy::kJointTraversal,
                       Strategy::kBitwise}) {
      gpusim::Device device;
      auto result = RunGroup(s, g.value(), sources, {}, &device);
      ASSERT_TRUE(result.ok());
      for (size_t j = 0; j < sources.size(); ++j) {
        EXPECT_TRUE(baselines::DepthsMatchReference(
            g.value(), sources[j], result.value().depths[j]))
            << "variant " << variant;
      }
    }
  }
}

TEST(FuzzEdgeCasesTest, StarAndCompleteGraphs) {
  // Star: maximal hub sharing. Complete: diameter 1, instant bottom-up.
  graph::GraphBuilder star(33);
  for (int leaf = 1; leaf < 33; ++leaf) {
    star.AddUndirectedEdge(0, static_cast<VertexId>(leaf));
  }
  auto star_g = std::move(star).Build();
  ASSERT_TRUE(star_g.ok());

  graph::GraphBuilder complete(16);
  for (int u = 0; u < 16; ++u) {
    for (int v = u + 1; v < 16; ++v) {
      complete.AddUndirectedEdge(static_cast<VertexId>(u),
                                 static_cast<VertexId>(v));
    }
  }
  auto complete_g = std::move(complete).Build();
  ASSERT_TRUE(complete_g.ok());

  for (const Csr* g : {&star_g.value(), &complete_g.value()}) {
    std::vector<VertexId> sources;
    for (int64_t v = 0; v < g->vertex_count(); ++v) {
      sources.push_back(static_cast<VertexId>(v));
    }
    gpusim::Device device;
    auto result = RunGroup(Strategy::kBitwise, *g, sources, {}, &device);
    ASSERT_TRUE(result.ok());
    for (size_t j = 0; j < sources.size(); ++j) {
      EXPECT_TRUE(baselines::DepthsMatchReference(*g, sources[j],
                                                  result.value().depths[j]));
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded byte-mutation fuzzing of the untrusted parsers: every mutant of a
// valid input must either be rejected with a Status or parse into a value
// that passes its own checks. A crash, abort or sanitizer report fails.

// Applies 1-4 random byte edits (overwrite, insert, delete, duplicate a
// run) to `input`.
std::string Mutate(const std::string& input, Prng* prng) {
  std::string out = input;
  const int edits = 1 + static_cast<int>(prng->NextBounded(4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = out.empty() ? 0 : prng->NextBounded(out.size());
    const auto byte = static_cast<char>(prng->NextBounded(256));
    switch (prng->NextBounded(4)) {
      case 0:
        if (!out.empty()) out[at] = byte;
        break;
      case 1:
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      case 2:
        if (!out.empty()) out.erase(at, 1);
        break;
      default: {
        const size_t len = 1 + prng->NextBounded(16);
        out.insert(at, out.substr(at, len));
        break;
      }
    }
  }
  return out;
}

// The structural invariants every loaded graph must hold.
void ExpectWellFormed(const Csr& g) {
  const int64_t v = g.vertex_count();
  ASSERT_GT(v, 0);
  for (const auto& [offsets, ids] :
       {std::pair{g.row_offsets(), g.adjacency()},
        std::pair{g.in_row_offsets(), g.in_adjacency()}}) {
    ASSERT_EQ(offsets.size(), static_cast<size_t>(v) + 1);
    ASSERT_EQ(offsets.front(), 0u);
    ASSERT_EQ(offsets.back(), ids.size());
    for (size_t i = 1; i < offsets.size(); ++i) {
      ASSERT_LE(offsets[i - 1], offsets[i]);
    }
    for (VertexId id : ids) ASSERT_LT(static_cast<int64_t>(id), v);
  }
  EXPECT_EQ(g.adjacency().size(), g.in_adjacency().size());
}

// Feeds `mutants` mutants of `seed_bytes` to `load` through a temp file.
void FuzzLoader(const std::string& seed_bytes, uint64_t seed, int mutants,
                const std::function<Result<Csr>(const std::string&)>& load) {
  const std::string path = ::testing::TempDir() + "ibfs_fuzz_" +
                           std::to_string(seed) + ".graph";
  Prng prng(seed);
  int accepted = 0;
  for (int i = 0; i < mutants; ++i) {
    const std::string bytes = Mutate(seed_bytes, &prng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Result<Csr> loaded = load(path);
    if (loaded.ok()) {
      ++accepted;
      SCOPED_TRACE("mutant " + std::to_string(i));
      ExpectWellFormed(loaded.value());
    }
  }
  std::remove(path.c_str());
  // The mix must exercise both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, mutants);
}

TEST(FuzzParsersTest, EdgeListMutants) {
  FuzzLoader("# edges\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n1 5\n", 501, 400,
             [](const std::string& path) {
               return graph::LoadEdgeList(path);
             });
}

TEST(FuzzParsersTest, MatrixMarketMutants) {
  FuzzLoader(
      "%%MatrixMarket matrix coordinate real symmetric\n% c\n"
      "6 6 5\n1 2 1.0\n2 3 2.5\n3 1 1\n4 5 7\n6 4 0.5\n",
      502, 400, [](const std::string& path) {
        return graph::LoadMatrixMarket(path);
      });
}

TEST(FuzzParsersTest, BinaryMutants) {
  const Csr g = FuzzGraph(7);
  const std::string path = ::testing::TempDir() + "ibfs_fuzz_seed.bin";
  ASSERT_TRUE(graph::SaveBinary(g, path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string seed_bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  FuzzLoader(seed_bytes, 503, 400, [](const std::string& p) {
    return graph::LoadBinary(p);
  });
}

TEST(FuzzParsersTest, FaultPlanMutants) {
  const std::string spec =
      "seed=7,devices=4,p_fail=0.1,perm=1,straggle=2:8,corrupt=0.05";
  Prng prng(504);
  int accepted = 0;
  for (int i = 0; i < 600; ++i) {
    const std::string mutant = Mutate(spec, &prng);
    auto plan = gpusim::FaultPlan::Parse(mutant);
    if (!plan.ok()) continue;
    ++accepted;
    SCOPED_TRACE(mutant);
    EXPECT_TRUE(plan.value().Validate().ok());
    // The display form parses back to the same plan.
    auto again = gpusim::FaultPlan::Parse(plan.value().ToString());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().ToString(), plan.value().ToString());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 600);
}

TEST(FuzzParsersTest, SloSpecMutants) {
  Prng prng(505);
  int accepted = 0;
  for (int i = 0; i < 600; ++i) {
    const std::string mutant = Mutate("interactive:250:0.99", &prng);
    auto spec = obs::SloSpec::Parse(mutant);
    if (!spec.ok()) continue;
    ++accepted;
    SCOPED_TRACE(mutant);
    EXPECT_GT(spec.value().objective_ms, 0.0);
    EXPECT_GT(spec.value().target, 0.0);
    EXPECT_LT(spec.value().target, 1.0);
    auto again = obs::SloSpec::Parse(spec.value().ToString());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().ToString(), spec.value().ToString());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 600);
}

}  // namespace
}  // namespace ibfs
