#include "graph/io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace ibfs::graph {
namespace {

// Most vertices a text graph file may declare or imply per byte of its
// size. Real edge lists name their vertices densely; without a bound, the
// 13-byte line "0 4000000000" implies four billion vertices and
// GraphBuilder aborts allocating their offsets.
constexpr int64_t kVerticesPerFileByte = 16;

Status CheckVertexBound(const std::string& path, int64_t vertices) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat " + path);
  if (vertices > kVerticesPerFileByte * static_cast<int64_t>(bytes)) {
    return Status::IoError(path + ": " + std::to_string(vertices) +
                           " vertices is too many for a " +
                           std::to_string(bytes) + "-byte file");
  }
  return Status::OK();
}

}  // namespace

Result<Csr> LoadEdgeList(const std::string& path, int64_t vertex_count,
                         bool undirected) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);

  std::vector<Edge> edges;
  int64_t max_id = -1;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t src = 0;
    uint64_t dst = 0;
    if (!(ls >> src >> dst)) {
      return Status::IoError(path + ":" + std::to_string(line_no) +
                             ": malformed edge line");
    }
    if (src > kInvalidVertex - 1 || dst > kInvalidVertex - 1) {
      return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                ": vertex id exceeds 32-bit range");
    }
    edges.push_back(
        {static_cast<VertexId>(src), static_cast<VertexId>(dst)});
    max_id = std::max<int64_t>(max_id, static_cast<int64_t>(std::max(src, dst)));
  }
  if (vertex_count < 0) {
    vertex_count = max_id + 1;
    IBFS_RETURN_NOT_OK(CheckVertexBound(path, vertex_count));
  }
  if (vertex_count <= 0) {
    return Status::InvalidArgument(path + ": no vertices");
  }

  GraphBuilder builder(vertex_count);
  for (const Edge& e : edges) {
    if (undirected) {
      builder.AddUndirectedEdge(e.src, e.dst);
    } else {
      builder.AddEdge(e.src, e.dst);
    }
  }
  return std::move(builder).Build();
}

namespace {

constexpr uint64_t kBinaryMagic = 0x53464249'48505247ULL;  // "GRPHIBFS"
constexpr uint32_t kBinaryVersion = 1;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
void WriteVec(std::ofstream& out, std::span<const T> values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
bool ReadVec(std::ifstream& in, size_t count, std::vector<T>* values) {
  values->resize(count);
  in.read(reinterpret_cast<char*>(values->data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveBinary(const Csr& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  WritePod(out, kBinaryMagic);
  WritePod(out, kBinaryVersion);
  WritePod(out, static_cast<uint64_t>(graph.vertex_count()));
  WritePod(out, static_cast<uint64_t>(graph.edge_count()));
  WriteVec(out, graph.row_offsets());
  WriteVec(out, graph.adjacency());
  WriteVec(out, graph.in_row_offsets());
  WriteVec(out, graph.in_adjacency());
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

Result<Csr> LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t vertices = 0;
  uint64_t edges = 0;
  if (!ReadPod(in, &magic) || magic != kBinaryMagic) {
    return Status::IoError(path + ": not an ibfs binary graph");
  }
  if (!ReadPod(in, &version) || version != kBinaryVersion) {
    return Status::IoError(path + ": unsupported version");
  }
  if (!ReadPod(in, &vertices) || !ReadPod(in, &edges) || vertices == 0) {
    return Status::IoError(path + ": corrupt header");
  }
  // Bound the header's sizes by the bytes the file actually holds before
  // allocating anything: two offset arrays of V+1 and two id arrays of E.
  const auto body_start = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::end);
  const uint64_t body_bytes = static_cast<uint64_t>(in.tellg()) - body_start;
  in.seekg(static_cast<std::streamoff>(body_start));
  constexpr uint64_t kOffsetPairBytes = 2 * sizeof(EdgeIndex);
  constexpr uint64_t kIdPairBytes = 2 * sizeof(VertexId);
  if (vertices >= body_bytes / kOffsetPairBytes ||
      edges > (body_bytes - (vertices + 1) * kOffsetPairBytes) / kIdPairBytes) {
    return Status::IoError(path + ": truncated graph data");
  }
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> adjacency;
  std::vector<EdgeIndex> in_offsets;
  std::vector<VertexId> in_adjacency;
  if (!ReadVec(in, vertices + 1, &offsets) ||
      !ReadVec(in, edges, &adjacency) ||
      !ReadVec(in, vertices + 1, &in_offsets) ||
      !ReadVec(in, edges, &in_adjacency)) {
    return Status::IoError(path + ": truncated graph data");
  }
  for (const std::vector<EdgeIndex>* offs : {&offsets, &in_offsets}) {
    if (offs->front() != 0 || offs->back() != edges ||
        !std::is_sorted(offs->begin(), offs->end())) {
      return Status::IoError(path + ": inconsistent offsets");
    }
  }
  for (const std::vector<VertexId>* ids : {&adjacency, &in_adjacency}) {
    for (VertexId v : *ids) {
      if (v >= vertices) return Status::IoError(path + ": vertex out of range");
    }
  }
  return Csr(std::move(offsets), std::move(adjacency), std::move(in_offsets),
             std::move(in_adjacency));
}

Result<Csr> LoadMatrixMarket(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string header;
  if (!std::getline(in, header) ||
      header.rfind("%%MatrixMarket", 0) != 0) {
    return Status::IoError(path + ": missing MatrixMarket banner");
  }
  std::istringstream hs(header);
  std::string banner, object, format, field, symmetry;
  hs >> banner >> object >> format >> field >> symmetry;
  if (object != "matrix" || format != "coordinate") {
    return Status::IoError(path + ": only coordinate matrices supported");
  }
  if (field != "pattern" && field != "integer" && field != "real") {
    return Status::IoError(path + ": unsupported field " + field);
  }
  if (symmetry != "general" && symmetry != "symmetric") {
    return Status::IoError(path + ": unsupported symmetry " + symmetry);
  }
  const bool symmetric = symmetry == "symmetric";
  const bool has_value = field != "pattern";

  std::string line;
  // Skip comments to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  int64_t rows = 0, cols = 0, entries = 0;
  if (!(size_line >> rows >> cols >> entries) || rows <= 0 || cols <= 0) {
    return Status::IoError(path + ": malformed size line");
  }
  const int64_t n = std::max(rows, cols);
  IBFS_RETURN_NOT_OK(CheckVertexBound(path, n));

  GraphBuilder builder(n);
  for (int64_t e = 0; e < entries; ++e) {
    if (!std::getline(in, line)) {
      return Status::IoError(path + ": truncated entry list");
    }
    std::istringstream ls(line);
    int64_t r = 0, c = 0;
    double value = 0.0;
    if (!(ls >> r >> c) || (has_value && !(ls >> value))) {
      return Status::IoError(path + ": malformed entry");
    }
    if (r < 1 || r > n || c < 1 || c > n) {
      return Status::OutOfRange(path + ": 1-based index out of range");
    }
    const auto u = static_cast<VertexId>(r - 1);
    const auto v = static_cast<VertexId>(c - 1);
    if (symmetric) {
      builder.AddUndirectedEdge(u, v);
    } else {
      builder.AddEdge(u, v);
    }
  }
  return std::move(builder).Build();
}

Status SaveEdgeList(const Csr& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const int64_t n = graph.vertex_count();
  for (int64_t v = 0; v < n; ++v) {
    for (VertexId w : graph.OutNeighbors(static_cast<VertexId>(v))) {
      out << v << ' ' << w << '\n';
    }
  }
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

}  // namespace ibfs::graph
