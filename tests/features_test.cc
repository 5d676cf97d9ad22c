// Tests for the release-grade extras: binary graph serialization,
// degree-ordered relabeling, distance matrices, and eccentricities.
#include <cstdio>
#include <numeric>

#include "apps/eccentricity.h"
#include "baselines/reference_bfs.h"
#include "core/shortest_paths.h"
#include "graph/io.h"
#include "graph/relabel.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ibfs {
namespace {

using graph::Csr;
using graph::VertexId;

TEST(BinaryIoTest, RoundTripsExactly) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  const std::string path = ::testing::TempDir() + "/ibfs_graph.bin";
  ASSERT_TRUE(graph::SaveBinary(g, path).ok());
  auto loaded = graph::LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Csr& h = loaded.value();
  ASSERT_EQ(h.vertex_count(), g.vertex_count());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    const auto a = g.OutNeighbors(static_cast<VertexId>(v));
    const auto b = h.OutNeighbors(static_cast<VertexId>(v));
    ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()));
    const auto ia = g.InNeighbors(static_cast<VertexId>(v));
    const auto ib = h.InNeighbors(static_cast<VertexId>(v));
    ASSERT_EQ(std::vector<VertexId>(ia.begin(), ia.end()),
              std::vector<VertexId>(ib.begin(), ib.end()));
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsGarbageAndTruncation) {
  const std::string path = ::testing::TempDir() + "/ibfs_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a graph", f);
    std::fclose(f);
  }
  EXPECT_FALSE(graph::LoadBinary(path).ok());

  // Valid header, truncated body.
  const Csr g = testing::MakeSmallGraph();
  ASSERT_TRUE(graph::SaveBinary(g, path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  }
  EXPECT_FALSE(graph::LoadBinary(path).ok());

  // Valid file with one field overwritten: each hostile value must come
  // back as IoError, never a crash or an abort. Layout: 28-byte header
  // (magic, version, V, E), then out-offsets, out-ids, in-offsets, in-ids.
  const auto load_patched = [&](long offset, uint64_t value, size_t width) {
    EXPECT_TRUE(graph::SaveBinary(g, path).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, offset, SEEK_SET);
    std::fwrite(&value, width, 1, f);
    std::fclose(f);
    return graph::LoadBinary(path).status().code();
  };
  const long v = static_cast<long>(g.vertex_count());
  const long e = static_cast<long>(g.edge_count());
  const long out_offsets = 28;
  const long in_offsets = out_offsets + (v + 1) * 8 + e * 4;
  const long in_ids = in_offsets + (v + 1) * 8;
  // Offset of the last vertex zeroed: the offsets stop being monotone.
  EXPECT_EQ(load_patched(out_offsets + (v - 1) * 8, 0, 8),
            StatusCode::kIoError);
  EXPECT_EQ(load_patched(in_offsets + (v - 1) * 8, 0, 8),
            StatusCode::kIoError);
  // An in-adjacency id equal to V.
  EXPECT_EQ(load_patched(in_ids, static_cast<uint64_t>(v), 4),
            StatusCode::kIoError);
  // A header that claims 2^40 vertices on a file of a few hundred bytes.
  EXPECT_EQ(load_patched(12, uint64_t{1} << 40, 8), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsIoError) {
  auto loaded = graph::LoadBinary("/nonexistent/ibfs.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(RelabelTest, MappingsAreInverse) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  auto relabeled = graph::RelabelByDegree(g);
  ASSERT_TRUE(relabeled.ok());
  const auto& r = relabeled.value();
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(r.old_id[r.new_id[v]], static_cast<VertexId>(v));
  }
}

TEST(RelabelTest, DegreesDescendInNewIds) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  auto relabeled = graph::RelabelByDegree(g);
  ASSERT_TRUE(relabeled.ok());
  const Csr& h = relabeled.value().graph;
  for (int64_t v = 0; v + 1 < h.vertex_count(); ++v) {
    EXPECT_GE(h.OutDegree(static_cast<VertexId>(v)),
              h.OutDegree(static_cast<VertexId>(v + 1)));
  }
}

TEST(RelabelTest, TraversalEquivalentAfterMappingBack) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  auto relabeled = graph::RelabelByDegree(g);
  ASSERT_TRUE(relabeled.ok());
  const auto& r = relabeled.value();
  const VertexId source = 37;
  const auto direct = baselines::ReferenceBfs(g, source);
  const auto on_new =
      baselines::ReferenceBfs(r.graph, r.new_id[source]);
  std::vector<uint8_t> new_depths;
  for (int32_t d : on_new) {
    new_depths.push_back(d < 0 ? 0xFF : static_cast<uint8_t>(d));
  }
  const auto mapped = graph::MapDepthsToOriginal(r, new_depths);
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    const int got = mapped[v] == 0xFF ? -1 : mapped[v];
    EXPECT_EQ(got, direct[v]) << "vertex " << v;
  }
}

TEST(DistanceMatrixTest, MatchesReference) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  std::vector<VertexId> sources = {0, 11, 54, 97};
  auto matrix = DistanceMatrix::Compute(g, sources);
  ASSERT_TRUE(matrix.ok());
  const auto& m = matrix.value();
  EXPECT_EQ(m.source_count(), 4);
  EXPECT_GT(m.sim_seconds(), 0.0);
  for (VertexId s : sources) {
    const int64_t row = m.RowOf(s);
    ASSERT_GE(row, 0);
    EXPECT_EQ(m.SourceAt(row), s);
    const auto ref = baselines::ReferenceBfs(g, s);
    for (int64_t v = 0; v < g.vertex_count(); ++v) {
      EXPECT_EQ(m.Distance(row, static_cast<VertexId>(v)), ref[v]);
    }
  }
}

TEST(DistanceMatrixTest, AllPairsSymmetricOnUndirectedGraph) {
  const Csr g = testing::MakeSmallGraph();
  auto matrix = DistanceMatrix::AllPairs(g);
  ASSERT_TRUE(matrix.ok());
  const auto& m = matrix.value();
  EXPECT_EQ(m.source_count(), g.vertex_count());
  for (int64_t u = 0; u < g.vertex_count(); ++u) {
    for (int64_t v = 0; v < g.vertex_count(); ++v) {
      EXPECT_EQ(m.Distance(m.RowOf(static_cast<VertexId>(u)),
                           static_cast<VertexId>(v)),
                m.Distance(m.RowOf(static_cast<VertexId>(v)),
                           static_cast<VertexId>(u)));
    }
  }
}

TEST(DistanceMatrixTest, RowOfNonSourceIsNegative) {
  const Csr g = testing::MakeSmallGraph();
  const std::vector<VertexId> sources = {1, 2};
  auto matrix = DistanceMatrix::Compute(g, sources);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix.value().RowOf(7), -1);
}

TEST(EccentricityTest, ChainHasKnownValues) {
  // Chain 0..9 (+island): ecc(0) = 9, ecc(5) = 5; diameter 9, radius <= 5.
  const Csr g = testing::MakeDisconnectedGraph(12);
  const std::vector<VertexId> sources = {0, 5, 9};
  auto result = apps::ComputeEccentricities(g, sources);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().eccentricity[0], 9);
  EXPECT_EQ(result.value().eccentricity[1], 5);
  EXPECT_EQ(result.value().eccentricity[2], 9);
  EXPECT_EQ(result.value().diameter_lower_bound, 9);
  EXPECT_EQ(result.value().radius_upper_bound, 5);
  EXPECT_GT(result.value().sim_seconds, 0.0);
}

TEST(EccentricityTest, AgreesAcrossStrategies) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  const std::vector<VertexId> sources = {0, 1, 2, 3, 4, 5, 6, 7};
  EngineOptions bitwise;
  bitwise.strategy = Strategy::kBitwise;
  EngineOptions sequential;
  sequential.strategy = Strategy::kSequential;
  auto a = apps::ComputeEccentricities(g, sources, bitwise);
  auto b = apps::ComputeEccentricities(g, sources, sequential);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().eccentricity, b.value().eccentricity);
}

}  // namespace
}  // namespace ibfs
