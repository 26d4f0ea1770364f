#include "topo/express_mesh.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xlp::topo {

ExpressMesh::ExpressMesh(const RowTopology& placement, int link_limit,
                         int flit_bits)
    : ExpressMesh(placement, placement, link_limit, flit_bits) {}

ExpressMesh::ExpressMesh(const RowTopology& row_placement,
                         const RowTopology& col_placement, int link_limit,
                         int flit_bits)
    : width_(row_placement.size()),
      height_(col_placement.size()),
      link_limit_(link_limit),
      flit_bits_(flit_bits),
      rows_(static_cast<std::size_t>(col_placement.size()), row_placement),
      cols_(static_cast<std::size_t>(row_placement.size()), col_placement) {
  XLP_REQUIRE(link_limit >= 1, "link limit must be at least 1");
  XLP_REQUIRE(flit_bits >= 1, "flit width must be at least 1 bit");
}

ExpressMesh::ExpressMesh(std::vector<RowTopology> rows,
                         std::vector<RowTopology> cols, int link_limit,
                         int flit_bits)
    : width_(rows.empty() ? 0 : rows.front().size()),
      height_(cols.empty() ? 0 : cols.front().size()),
      link_limit_(link_limit),
      flit_bits_(flit_bits),
      rows_(std::move(rows)),
      cols_(std::move(cols)) {
  XLP_REQUIRE(link_limit >= 1, "link limit must be at least 1");
  XLP_REQUIRE(flit_bits >= 1, "flit width must be at least 1 bit");
  XLP_REQUIRE(!rows_.empty() && !cols_.empty(),
              "mesh needs at least one row and one column");
  XLP_REQUIRE(static_cast<int>(rows_.size()) == height_,
              "number of row topologies must equal the column length");
  XLP_REQUIRE(static_cast<int>(cols_.size()) == width_,
              "number of column topologies must equal the row length");
  for (const auto& r : rows_)
    XLP_REQUIRE(r.size() == width_, "all rows must have width routers");
  for (const auto& c : cols_)
    XLP_REQUIRE(c.size() == height_, "all columns must have height routers");
}

int ExpressMesh::side() const {
  XLP_REQUIRE(is_square(), "side() called on a rectangular design");
  return width_;
}

const RowTopology& ExpressMesh::row(int y) const {
  XLP_REQUIRE(y >= 0 && y < height_, "row index out of range");
  return rows_[static_cast<std::size_t>(y)];
}

const RowTopology& ExpressMesh::col(int x) const {
  XLP_REQUIRE(x >= 0 && x < width_, "column index out of range");
  return cols_[static_cast<std::size_t>(x)];
}

int ExpressMesh::node_id(Coord c) const {
  XLP_REQUIRE(c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_,
              "coordinate out of range");
  return c.y * width_ + c.x;
}

Coord ExpressMesh::coord(int node_id) const {
  XLP_REQUIRE(node_id >= 0 && node_id < node_count(), "node id out of range");
  return {node_id % width_, node_id / width_};
}

int ExpressMesh::max_cut_count() const {
  int max_cut = 0;
  for (const auto& r : rows_) max_cut = std::max(max_cut, r.max_cut_count());
  for (const auto& c : cols_) max_cut = std::max(max_cut, c.max_cut_count());
  return max_cut;
}

int ExpressMesh::router_ports(Coord c) const {
  return row(c.y).degree(c.x) + col(c.x).degree(c.y) + 1;
}

double ExpressMesh::average_router_ports() const {
  long total = 0;
  for (int y = 0; y < height_; ++y)
    for (int x = 0; x < width_; ++x) total += router_ports({x, y});
  return static_cast<double>(total) / node_count();
}

long ExpressMesh::total_wire_units() const {
  long units = 0;
  auto add = [&units](const RowTopology& r) {
    for (const RowLink& link : r.all_links()) units += link.length();
  };
  for (const auto& r : rows_) add(r);
  for (const auto& c : cols_) add(c);
  return units;
}

long ExpressMesh::total_link_count() const {
  long count = 0;
  for (const auto& r : rows_)
    count += static_cast<long>(r.all_links().size());
  for (const auto& c : cols_)
    count += static_cast<long>(c.all_links().size());
  return count;
}

}  // namespace xlp::topo
