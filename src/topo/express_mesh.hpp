#pragma once

#include <vector>

#include "topo/row_topology.hpp"

namespace xlp::topo {

/// (x, y) router coordinates; x is the column, y is the row, both 0-based
/// with (0,0) in the top-left corner.
struct Coord {
  int x = 0;
  int y = 0;
  friend constexpr bool operator==(const Coord&, const Coord&) = default;
};

/// A two-dimensional n x n mesh augmented with express links, described by
/// one RowTopology per row and one per column (Section 4.2's reduction works
/// in the other direction: solve one row, replicate). The general-purpose
/// design uses the same placement for every row and column; the
/// application-specific variant of Section 5.6.4 allows them to differ.
///
/// The design point also carries its link limit C and the resulting flit
/// width b = base_flit_bits / C (Section 3, Eq. 3): both the simulator and
/// the serialization model need the width that the placement paid for.
class ExpressMesh {
 public:
  /// Homogeneous square design: the same 1D placement replicated across all
  /// n rows and all n columns (the paper's general-purpose construction).
  ExpressMesh(const RowTopology& placement, int link_limit, int flit_bits);

  /// Homogeneous rectangular design (width x height routers): one placement
  /// for every row (size = width) and one for every column (size = height).
  ExpressMesh(const RowTopology& row_placement,
              const RowTopology& col_placement, int link_limit,
              int flit_bits);

  /// Heterogeneous design: individual placements per row and per column
  /// (application-specific construction). Needs height row topologies of
  /// size width and width column topologies of size height; square and
  /// rectangular grids both work.
  ExpressMesh(std::vector<RowTopology> rows, std::vector<RowTopology> cols,
              int link_limit, int flit_bits);

  /// Routers per row.
  [[nodiscard]] int width() const noexcept { return width_; }
  /// Number of rows.
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] bool is_square() const noexcept { return width_ == height_; }
  /// Routers per side; only meaningful for square designs (throws
  /// otherwise). Kept because the paper's networks are all square.
  [[nodiscard]] int side() const;
  /// Total routers N = width * height.
  [[nodiscard]] int node_count() const noexcept { return width_ * height_; }

  [[nodiscard]] int link_limit() const noexcept { return link_limit_; }
  [[nodiscard]] int flit_bits() const noexcept { return flit_bits_; }

  [[nodiscard]] const RowTopology& row(int y) const;
  [[nodiscard]] const RowTopology& col(int x) const;
  [[nodiscard]] const std::vector<RowTopology>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] const std::vector<RowTopology>& cols() const noexcept {
    return cols_;
  }

  [[nodiscard]] int node_id(Coord c) const;
  [[nodiscard]] Coord coord(int node_id) const;

  /// Largest cross-section link count over every row and column; the design
  /// is feasible iff this does not exceed link_limit().
  [[nodiscard]] int max_cut_count() const;
  [[nodiscard]] bool is_feasible() const { return max_cut_count() <= link_limit_; }

  /// Router port count including the network-interface port: row degree +
  /// column degree + 1. Drives the crossbar power model (b * k^2).
  [[nodiscard]] int router_ports(Coord c) const;
  [[nodiscard]] double average_router_ports() const;

  /// Total unit-length wire segments (both dimensions, counting a length-L
  /// bidirectional link as L units); proportional to wiring area.
  [[nodiscard]] long total_wire_units() const;

  /// Total number of bidirectional links in the design (local + express).
  [[nodiscard]] long total_link_count() const;

  friend bool operator==(const ExpressMesh&, const ExpressMesh&) = default;

 private:
  int width_;
  int height_;
  int link_limit_;
  int flit_bits_;
  std::vector<RowTopology> rows_;  // height_ entries, indexed by y
  std::vector<RowTopology> cols_;  // width_ entries, indexed by x
};

}  // namespace xlp::topo
