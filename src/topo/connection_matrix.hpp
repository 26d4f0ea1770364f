#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/row_topology.hpp"
#include "util/rng.hpp"

namespace xlp::topo {

/// The paper's connection matrix (Section 4.4.2): a binary matrix of size
/// (n-2) x (C-1) that encodes express-link placements for the 1D problem
/// P̄(n, C) such that *every* matrix decodes to a valid placement (local
/// links present, every cross-section carries at most C links) and every
/// valid placement is reachable from some matrix.
///
/// Rows of the matrix are *layers* (one per express-link "track"; one track
/// is reserved for the local links and is not represented). Columns are the
/// n-2 interior routers. A set bit at (layer, router r) means the two link
/// segments on both sides of router r in that layer are fused; a maximal run
/// of set bits over routers [a..b] decodes to the express link (a-1, b+1).
/// Unit segments not covered by any run are dropped — they would merely
/// duplicate a local link and cannot reduce latency (Section 5.4 discusses
/// exactly this unused bandwidth).
class ConnectionMatrix {
 public:
  /// All-zero matrix for P̄(n, C). Requires n >= 2 and C >= 1; for n <= 2 or
  /// C == 1 the matrix is empty and decodes to the plain row.
  ConnectionMatrix(int n, int link_limit);

  [[nodiscard]] int row_size() const noexcept { return n_; }
  [[nodiscard]] int link_limit() const noexcept { return c_; }
  [[nodiscard]] int layers() const noexcept { return c_ - 1; }
  /// Number of interior routers, i.e. columns of the matrix.
  [[nodiscard]] int interior() const noexcept { return n_ > 2 ? n_ - 2 : 0; }
  /// Total number of flippable connection points.
  [[nodiscard]] int bit_count() const noexcept {
    return layers() * interior();
  }

  /// Connection point at (layer, interior router index 0..n-3); interior
  /// index i corresponds to physical router i+1.
  [[nodiscard]] bool bit(int layer, int interior_idx) const;
  void set_bit(int layer, int interior_idx, bool value);
  void flip_bit(int layer, int interior_idx);
  /// The interior() connection points of `layer` (in [0, layers())), one
  /// 0/1 byte each: for loops that scan runs without a checked call per
  /// point.
  [[nodiscard]] const std::uint8_t* layer_bits(int layer) const noexcept {
    return bits_.data() + static_cast<std::size_t>(layer) * interior();
  }
  /// Flat accessors over [0, bit_count()): used by the SA move generator.
  [[nodiscard]] bool bit_flat(int idx) const;
  void flip_flat(int idx);

  /// Uniformly random matrix: each connection point set with probability
  /// `density`. Used as the OnlySA random starting point.
  static ConnectionMatrix random(int n, int link_limit, Rng& rng,
                                 double density = 0.5);

  /// Decodes into a row topology. The result always satisfies
  /// fits_link_limit(link_limit()).
  [[nodiscard]] RowTopology decode() const;

  /// Encodes an existing valid placement into a matrix whose decode() yields
  /// a topology with the same reachability-relevant links. Express links are
  /// assigned to layers by greedy interval partitioning, which succeeds for
  /// every placement with max_cut_count() <= link_limit (the constructive
  /// half of the paper's reachability claim). Throws PreconditionError when
  /// the topology does not fit the limit.
  static ConnectionMatrix encode(const RowTopology& row, int link_limit);

  /// "101|010"-style dump, layers separated by '|'.
  [[nodiscard]] std::string to_string() const;

  /// Inverse of to_string() for P̄(n, link_limit): parses a '|'-separated
  /// layer dump back into a matrix. Throws PreconditionError when the text
  /// does not describe exactly layers() rows of interior() '0'/'1' digits.
  /// Used by checkpoint restore, so a resumed run starts from the exact
  /// matrix that was saved.
  static ConnectionMatrix from_string(int n, int link_limit,
                                      const std::string& text);

  friend bool operator==(const ConnectionMatrix&,
                         const ConnectionMatrix&) = default;

 private:
  int n_;
  int c_;
  std::vector<std::uint8_t> bits_;  // layer-major, layers() * interior()
};

}  // namespace xlp::topo
