#include "route/mesh_routing.hpp"

#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace xlp::route {

MeshRouting::MeshRouting(const topo::ExpressMesh& mesh, HopWeights weights)
    : width_(mesh.width()), height_(mesh.height()) {
  row_table_.reserve(static_cast<std::size_t>(height_));
  col_table_.reserve(static_cast<std::size_t>(width_));
  // A homogeneous design repeats one placement in every row and column, so
  // each distinct line gets one table, which every line equal to it shares.
  std::vector<const topo::RowTopology*> distinct;
  const auto table_for = [&](const topo::RowTopology& line) {
    for (std::size_t t = 0; t < distinct.size(); ++t)
      if (*distinct[t] == line) return t;
    distinct.push_back(&line);
    tables_.emplace_back(line, weights);
    return tables_.size() - 1;
  };
  {
    const obs::ProfileScope rows_scope("route.fw_rows");
    for (int y = 0; y < height_; ++y)
      row_table_.push_back(table_for(mesh.row(y)));
  }
  {
    const obs::ProfileScope cols_scope("route.fw_cols");
    for (int x = 0; x < width_; ++x)
      col_table_.push_back(table_for(mesh.col(x)));
  }
}

MeshRouting::MeshRouting(std::vector<DirectionalShortestPaths> row_paths,
                         std::vector<DirectionalShortestPaths> col_paths)
    : width_(0), height_(0) {
  XLP_REQUIRE(!row_paths.empty() && !col_paths.empty(),
              "routing needs at least one row and one column table");
  width_ = row_paths.front().size();
  height_ = col_paths.front().size();
  XLP_REQUIRE(row_paths.size() == static_cast<std::size_t>(height_) &&
                  col_paths.size() == static_cast<std::size_t>(width_),
              "need one table per row and per column");
  for (const auto& r : row_paths)
    XLP_REQUIRE(r.size() == width_, "row tables must all have width entries");
  for (const auto& c : col_paths)
    XLP_REQUIRE(c.size() == height_,
                "column tables must all have height entries");
  tables_ = std::move(row_paths);
  for (std::size_t y = 0; y < tables_.size(); ++y) row_table_.push_back(y);
  for (auto& c : col_paths) {
    col_table_.push_back(tables_.size());
    tables_.push_back(std::move(c));
  }
}

bool MeshRouting::reachable(int src, int dest, Orientation orientation) const {
  XLP_REQUIRE(src >= 0 && src < width_ * height_ && dest >= 0 &&
                  dest < width_ * height_,
              "node out of range");
  if (src == dest) return true;
  const int sx = src % width_, sy = src / width_;
  const int dx = dest % width_, dy = dest / width_;
  if (orientation == Orientation::kXYFirst) {
    return row(sy).reachable(sx, dx) &&
           col(dx).reachable(sy, dy);
  }
  return col(sx).reachable(sy, dy) &&
         row(dy).reachable(sx, dx);
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
        row(ny).next_hop(nx, dx);
    XLP_REQUIRE(next_x >= 0,
                "destination unreachable on the degraded row — check "
                "reachable() before routing");
    return ny * width_ + next_x;
  }
  const int next_y = col(nx).next_hop(ny, dy);
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
    return row(sy).hops(sx, dx) +
           col(dx).hops(sy, dy);
  }
  return col(sx).hops(sy, dy) +
         row(dy).hops(sx, dx);
}

double MeshRouting::head_cost(int src, int dest,
                              Orientation orientation) const {
  const int sx = src % width_, sy = src / width_;
  const int dx = dest % width_, dy = dest / width_;
  if (orientation == Orientation::kXYFirst) {
    return row(sy).cost(sx, dx) +
           col(dx).cost(sy, dy);
  }
  return col(sx).cost(sy, dy) +
         row(dy).cost(sx, dx);
}

const DirectionalShortestPaths& MeshRouting::row_paths(int y) const {
  XLP_REQUIRE(y >= 0 && y < height_, "row index out of range");
  return row(y);
}

const DirectionalShortestPaths& MeshRouting::col_paths(int x) const {
  XLP_REQUIRE(x >= 0 && x < width_, "column index out of range");
  return col(x);
}

}  // namespace xlp::route
