#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace xlp::topo {

/// A bidirectional link between two routers of the same row (or column),
/// identified by their 0-based positions. `lo < hi` always holds. A link with
/// `hi - lo == 1` is a *local* link; `hi - lo >= 2` is an *express* link.
struct RowLink {
  int lo = 0;
  int hi = 0;

  [[nodiscard]] constexpr int length() const noexcept { return hi - lo; }
  [[nodiscard]] constexpr bool is_express() const noexcept {
    return length() >= 2;
  }
  /// True when this link crosses the cross-section between routers
  /// `cut` and `cut+1`.
  [[nodiscard]] constexpr bool crosses(int cut) const noexcept {
    return lo <= cut && cut < hi;
  }

  friend constexpr auto operator<=>(const RowLink&, const RowLink&) = default;
};

/// One-dimensional express-link topology: a row (or column) of `n` routers.
///
/// Local links between every adjacent pair are implicit and always present —
/// a valid placement must contain them (Section 4.3 of the paper) so they are
/// not part of the mutable state. Express links are kept as a sorted multiset
/// (the connection-matrix search space can legitimately produce duplicated
/// parallel links; they consume cross-section capacity but do not reduce
/// latency).
class RowTopology {
 public:
  /// A row of n routers with only local links. Requires n >= 2.
  explicit RowTopology(int n);

  /// A row of n routers with the given express links; each must satisfy
  /// 0 <= lo, hi < n, and hi - lo >= 2.
  RowTopology(int n, std::vector<RowLink> express_links);

  [[nodiscard]] int size() const noexcept { return n_; }

  /// Sorted express links (duplicates possible).
  [[nodiscard]] const std::vector<RowLink>& express_links() const noexcept {
    return express_;
  }

  /// All links including the n-1 implicit local ones, sorted.
  [[nodiscard]] std::vector<RowLink> all_links() const;

  /// Adds one express link (keeps the set sorted).
  void add_express(RowLink link);

  /// Removes one instance of the given express link; returns false when the
  /// link is not present.
  bool remove_express(RowLink link);

  /// Number of links (local + express) crossing the cross-section between
  /// routers `cut` and `cut+1`. Requires 0 <= cut < n-1.
  [[nodiscard]] int cut_count(int cut) const;

  /// All n-1 cut counts, left to right.
  [[nodiscard]] std::vector<int> cut_counts() const;

  /// The maximum cut count over all cross-sections; this is the smallest
  /// link limit C under which this placement is valid.
  [[nodiscard]] int max_cut_count() const;

  /// True when every cross-section carries at most `link_limit` links.
  [[nodiscard]] bool fits_link_limit(int link_limit) const;

  /// Rightward neighbors of router `r`: sorted positions `r2 > r` directly
  /// connected to `r` (local neighbor first). Requires 0 <= r < n.
  [[nodiscard]] std::vector<int> neighbors_right(int r) const;

  /// Leftward neighbors of router `r`: sorted positions `r2 < r` directly
  /// connected to `r`.
  [[nodiscard]] std::vector<int> neighbors_left(int r) const;

  /// Degree of router `r` within the row (local + express, both directions).
  [[nodiscard]] int degree(int r) const;

  /// Average within-row degree; Section 4.6 uses this to argue the crossbar
  /// port count grows sub-linearly in C.
  [[nodiscard]] double average_degree() const;

  /// Returns a topology with express links mirrored around the row center;
  /// the pairwise-average objective is invariant under this map.
  [[nodiscard]] RowTopology mirrored() const;

  /// Compact text form, e.g. "8:[(0,2)(2,7)]".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const RowTopology&, const RowTopology&) = default;

 private:
  void validate_link(RowLink link) const;

  int n_;
  std::vector<RowLink> express_;  // sorted
};

/// Parses express links "lo-hi,lo-hi,..." ("" and "none": no links).
/// Strict: an entry that is not two integers joined by '-' throws
/// xlp::Error(kParse); ranges are RowTopology's to check.
[[nodiscard]] std::vector<RowLink> parse_links(const std::string& spec);

/// Inverse of parse_links: "lo-hi,lo-hi", "" for a plain row.
[[nodiscard]] std::string format_links(const RowTopology& row);

/// The paper's C_full = n^2/4 (Eq. 4): the cross-section count of a fully
/// connected row, attained between the two middle routers.
[[nodiscard]] int full_link_limit(int n);

/// Link limits worth exploring for an n-router row: powers of two from 1 to
/// C_full (Section 4.1: the flit size is a power of two that divides the
/// packet sizes, so only a few C values are possible). When C_full is not a
/// power of two, it is included as the final entry.
[[nodiscard]] std::vector<int> valid_link_limits(int n);

}  // namespace xlp::topo
