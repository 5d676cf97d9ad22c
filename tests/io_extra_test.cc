// Tests for the Matrix Market loader, connected-component labeling,
// two-hop GroupBy hub search, and trace export.
#include <fstream>
#include <numeric>
#include <sstream>

#include "core/engine.h"
#include "core/trace_io.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "graph/io.h"
#include "gtest/gtest.h"
#include "ibfs/groupby.h"
#include "test_util.h"

namespace ibfs {
namespace {

using graph::Csr;
using graph::VertexId;

std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(MatrixMarketTest, LoadsGeneralPattern) {
  const std::string path = WriteTemp("mm_general.mtx",
                                     "%%MatrixMarket matrix coordinate "
                                     "pattern general\n"
                                     "% a comment\n"
                                     "3 3 3\n"
                                     "1 2\n"
                                     "2 3\n"
                                     "3 1\n");
  auto g = graph::LoadMatrixMarket(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().vertex_count(), 3);
  EXPECT_EQ(g.value().edge_count(), 3);
  EXPECT_EQ(g.value().OutNeighbors(0)[0], 1u);  // 1-based converted
  std::remove(path.c_str());
}

TEST(MatrixMarketTest, SymmetricAddsBothDirections) {
  const std::string path = WriteTemp("mm_symmetric.mtx",
                                     "%%MatrixMarket matrix coordinate "
                                     "real symmetric\n"
                                     "4 4 2\n"
                                     "2 1 0.5\n"
                                     "4 3 1.25\n");
  auto g = graph::LoadMatrixMarket(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().edge_count(), 4);
  EXPECT_EQ(g.value().OutDegree(0), 1);
  EXPECT_EQ(g.value().OutDegree(1), 1);
  std::remove(path.c_str());
}

TEST(MatrixMarketTest, RejectsBadInputs) {
  const std::string no_banner = WriteTemp("mm_bad1.mtx", "1 1 0\n");
  EXPECT_FALSE(graph::LoadMatrixMarket(no_banner).ok());
  const std::string dense = WriteTemp(
      "mm_bad2.mtx", "%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_FALSE(graph::LoadMatrixMarket(dense).ok());
  const std::string truncated = WriteTemp(
      "mm_bad3.mtx",
      "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n");
  EXPECT_FALSE(graph::LoadMatrixMarket(truncated).ok());
  const std::string out_of_range = WriteTemp(
      "mm_bad4.mtx",
      "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n");
  EXPECT_FALSE(graph::LoadMatrixMarket(out_of_range).ok());
  for (const auto& p : {no_banner, dense, truncated, out_of_range}) {
    std::remove(p.c_str());
  }
}

// A declared (MatrixMarket) or implied (edge list) vertex count far past
// what the file's bytes can describe returns IoError before GraphBuilder
// allocates, instead of aborting with bad_alloc.
TEST(MatrixMarketTest, RejectsVertexCountsBeyondTheFileSize) {
  const std::string huge_mm = WriteTemp(
      "mm_huge.mtx",
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3000000000 3000000000 1\n1 2\n");
  EXPECT_EQ(graph::LoadMatrixMarket(huge_mm).status().code(),
            StatusCode::kIoError);
  const std::string huge_ids = WriteTemp("el_huge.txt", "0 4000000000\n");
  EXPECT_EQ(graph::LoadEdgeList(huge_ids).status().code(),
            StatusCode::kIoError);
  for (const auto& p : {huge_mm, huge_ids}) std::remove(p.c_str());
}

TEST(ConnectedComponentsTest, LabelsAndSizes) {
  const Csr g = testing::MakeDisconnectedGraph(12);
  const auto cc = graph::ConnectedComponents(g);
  EXPECT_EQ(cc.component_count, 2);
  EXPECT_EQ(cc.giant_id, 0);
  EXPECT_EQ(cc.sizes[0], 10);
  EXPECT_EQ(cc.sizes[1], 2);
  for (int v = 0; v < 10; ++v) EXPECT_EQ(cc.labels[v], 0);
  EXPECT_EQ(cc.labels[10], 1);
  EXPECT_EQ(cc.labels[11], 1);
}

TEST(ConnectedComponentsTest, IsolatedVerticesAreSingletons) {
  graph::GraphBuilder builder(5);
  builder.AddUndirectedEdge(0, 1);
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  const auto cc = graph::ConnectedComponents(g.value());
  EXPECT_EQ(cc.component_count, 4);  // {0,1}, {2}, {3}, {4}
  int64_t total = 0;
  for (int64_t s : cc.sizes) total += s;
  EXPECT_EQ(total, 5);
}

TEST(TwoHopGroupByTest, ReachesHubsBehindOneHop) {
  // Hub 0 — relays 1..10 — two leaves per relay. With q between the relay
  // degree (3) and the hub degree (10), leaves only reach a qualifying
  // hub at depth 2.
  graph::GraphBuilder builder(31);
  std::vector<VertexId> leaves;
  for (VertexId relay = 1; relay <= 10; ++relay) {
    builder.AddUndirectedEdge(0, relay);
    for (int k = 0; k < 2; ++k) {
      const auto leaf = static_cast<VertexId>(9 + relay * 2 + k);
      builder.AddUndirectedEdge(relay, leaf);
      leaves.push_back(leaf);
    }
  }
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g.value().OutDegree(0), 10);
  ASSERT_EQ(g.value().OutDegree(1), 3);

  GroupByParams params;
  params.q = 5;
  params.uniform_fallback = false;
  params.hub_search_depth = 1;
  const Grouping one_hop = GroupByOutdegree(g.value(), leaves, params);
  params.hub_search_depth = 2;
  const Grouping two_hop = GroupByOutdegree(g.value(), leaves, params);
  EXPECT_EQ(one_hop.rule_matched, 0);
  EXPECT_EQ(two_hop.rule_matched, static_cast<int64_t>(leaves.size()));
  // All leaves share hub 0, so they land in few groups, not many.
  EXPECT_LE(two_hop.groups.size(), one_hop.groups.size());
}

TEST(TraceIoTest, LevelTracesCsvHasRows) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  std::vector<VertexId> sources(32);
  std::iota(sources.begin(), sources.end(), 0);
  EngineOptions options;
  options.strategy = Strategy::kJointTraversal;
  options.grouping = GroupingPolicy::kInOrder;
  Engine engine(&g, options);
  auto result = engine.Run(sources);
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  WriteLevelTracesCsv(result.value(), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("sharing_degree"), std::string::npos);
  EXPECT_NE(out.find("top-down"), std::string::npos);
  EXPECT_NE(out.find("bottom-up"), std::string::npos);
  std::ostringstream ph;
  WritePhasesCsv(result.value(), ph);
  EXPECT_NE(ph.str().find("fq_gen"), std::string::npos);
}

}  // namespace
}  // namespace ibfs
