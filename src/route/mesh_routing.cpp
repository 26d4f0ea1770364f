#include "route/mesh_routing.hpp"

#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace xlp::route {

MeshRouting::MeshRouting(const topo::ExpressMesh& mesh, HopWeights weights)
    : width_(mesh.width()), height_(mesh.height()) {
  row_paths_.reserve(static_cast<std::size_t>(height_));
  col_paths_.reserve(static_cast<std::size_t>(width_));
  // A homogeneous design repeats one placement in every row and column, so
  // a line equal to the one before it copies that line's tables.
  const topo::RowTopology* prev_line = nullptr;
  const DirectionalShortestPaths* prev_paths = nullptr;
  const auto add = [&](std::vector<DirectionalShortestPaths>& tables,
                       const topo::RowTopology& line) {
    if (prev_line != nullptr && *prev_line == line)
      tables.push_back(*prev_paths);
    else
      tables.emplace_back(line, weights);
    prev_line = &line;
    prev_paths = &tables.back();
  };
  {
    const obs::ProfileScope rows_scope("route.fw_rows");
    for (int y = 0; y < height_; ++y) add(row_paths_, mesh.row(y));
  }
  {
    const obs::ProfileScope cols_scope("route.fw_cols");
    for (int x = 0; x < width_; ++x) add(col_paths_, mesh.col(x));
  }
}

MeshRouting::MeshRouting(std::vector<DirectionalShortestPaths> row_paths,
                         std::vector<DirectionalShortestPaths> col_paths)
    : width_(0),
      height_(0),
      row_paths_(std::move(row_paths)),
      col_paths_(std::move(col_paths)) {
  XLP_REQUIRE(!row_paths_.empty() && !col_paths_.empty(),
              "routing needs at least one row and one column table");
  width_ = row_paths_.front().size();
  height_ = col_paths_.front().size();
  XLP_REQUIRE(row_paths_.size() == static_cast<std::size_t>(height_) &&
                  col_paths_.size() == static_cast<std::size_t>(width_),
              "need one table per row and per column");
  for (const auto& r : row_paths_)
    XLP_REQUIRE(r.size() == width_, "row tables must all have width entries");
  for (const auto& c : col_paths_)
    XLP_REQUIRE(c.size() == height_,
                "column tables must all have height entries");
}

bool MeshRouting::reachable(int src, int dest, Orientation orientation) const {
  XLP_REQUIRE(src >= 0 && src < width_ * height_ && dest >= 0 &&
                  dest < width_ * height_,
              "node out of range");
  if (src == dest) return true;
  const int sx = src % width_, sy = src / width_;
  const int dx = dest % width_, dy = dest / width_;
  if (orientation == Orientation::kXYFirst) {
    return row_paths_[static_cast<std::size_t>(sy)].reachable(sx, dx) &&
           col_paths_[static_cast<std::size_t>(dx)].reachable(sy, dy);
  }
  return col_paths_[static_cast<std::size_t>(sx)].reachable(sy, dy) &&
         row_paths_[static_cast<std::size_t>(dy)].reachable(sx, dx);
}

int MeshRouting::next_hop(int node, int dest, Orientation orientation) const {
  XLP_REQUIRE(node != dest, "packet at its destination should eject");
  const int nx = node % width_;
  const int ny = node / width_;
  const int dx = dest % width_;
  const int dy = dest / width_;
  const bool row_first = orientation == Orientation::kXYFirst;
  if (row_first ? nx != dx : ny == dy) {
    // Row segment (XY: first while x differs; YX: last, once y matches).
    const int next_x =
        row_paths_[static_cast<std::size_t>(ny)].next_hop(nx, dx);
    XLP_REQUIRE(next_x >= 0,
                "destination unreachable on the degraded row — check "
                "reachable() before routing");
    return ny * width_ + next_x;
  }
  const int next_y = col_paths_[static_cast<std::size_t>(nx)].next_hop(ny, dy);
  XLP_REQUIRE(next_y >= 0,
              "destination unreachable on the degraded column — check "
              "reachable() before routing");
  return next_y * width_ + nx;
}

std::vector<int> MeshRouting::path(int src, int dest,
                                   Orientation orientation) const {
  std::vector<int> out{src};
  int cur = src;
  while (cur != dest) {
    cur = next_hop(cur, dest, orientation);
    out.push_back(cur);
    XLP_CHECK(out.size() <= static_cast<std::size_t>(width_ + height_),
              "dimension-ordered route longer than one row plus one column");
  }
  return out;
}

int MeshRouting::hops(int src, int dest, Orientation orientation) const {
  const int sx = src % width_, sy = src / width_;
  const int dx = dest % width_, dy = dest / width_;
  if (orientation == Orientation::kXYFirst) {
    return row_paths_[static_cast<std::size_t>(sy)].hops(sx, dx) +
           col_paths_[static_cast<std::size_t>(dx)].hops(sy, dy);
  }
  return col_paths_[static_cast<std::size_t>(sx)].hops(sy, dy) +
         row_paths_[static_cast<std::size_t>(dy)].hops(sx, dx);
}

double MeshRouting::head_cost(int src, int dest,
                              Orientation orientation) const {
  const int sx = src % width_, sy = src / width_;
  const int dx = dest % width_, dy = dest / width_;
  if (orientation == Orientation::kXYFirst) {
    return row_paths_[static_cast<std::size_t>(sy)].cost(sx, dx) +
           col_paths_[static_cast<std::size_t>(dx)].cost(sy, dy);
  }
  return col_paths_[static_cast<std::size_t>(sx)].cost(sy, dy) +
         row_paths_[static_cast<std::size_t>(dy)].cost(sx, dx);
}

const DirectionalShortestPaths& MeshRouting::row_paths(int y) const {
  XLP_REQUIRE(y >= 0 && y < height_, "row index out of range");
  return row_paths_[static_cast<std::size_t>(y)];
}

const DirectionalShortestPaths& MeshRouting::col_paths(int x) const {
  XLP_REQUIRE(x >= 0 && x < width_, "column index out of range");
  return col_paths_[static_cast<std::size_t>(x)];
}

}  // namespace xlp::route
