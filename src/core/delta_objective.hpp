#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/objective.hpp"
#include "topo/connection_matrix.hpp"
#include "topo/row_topology.hpp"

namespace xlp::core {

/// Incremental (delta) evaluation of a RowObjective for single-link
/// neighborhood moves — the SA inner loop's "flip one connection point" and
/// the divide-and-conquer merge's "add one cross link".
///
/// RowObjective::evaluate rebuilds DirectionalShortestPaths from scratch:
/// O(n^2 · degree) relaxations plus a decode and per-router adjacency
/// allocations, on every move. This class keeps only the hop count of every
/// pair's shortest monotone path. The paper's head latency is
/// H·Tr + D·Tl (Eq. 1), and a monotone path from i to j covers exactly
/// |j - i| units of wire, so
///   cost(i, j) = Tl·|j - i| + Tr·hops(i, j)
/// and the cheapest path is the one with the fewest hops. The table is one
/// byte per pair, stored by target column: column j holds hops(i, j) for
/// every source i < j contiguously, 0 at i == j and 0xFF (no path) for
/// i > j, padded to a stride of kLanes bytes. With no U-turns the last hop into j
/// comes from j - 1 or from the source k of an express link (k, j), so
///   col_j = min(col_{j-1}, col_k for each express source k) + 1
/// over the sources i < j, where col_k's 0xFF cells drop the sources an
/// express link (k, j) cannot serve. Each column is one byte loop per
/// source and one more, over whole lanes, which the compiler vectorizes.
///
/// When links are toggled, column j can change only in the rows i <= lo of
/// a toggled link (lo, hi <= j): a monotone path never leaves [i, j]. The
/// evaluator recomputes, from the smallest toggled hi on, each column whose
/// inputs moved — a toggled link ends there, or column j - 1 or an express
/// source's column changed — over those rows rounded up to kLanes. Cells
/// outside them recompute to their stored value, so the result is exact.
/// revert() restores the touched columns with one contiguous block copy from
/// a mirror of the committed table; commit() refreshes the mirror the same
/// way.
///
/// Exactness contract: every score this class returns is bit-identical to
/// what RowObjective::evaluate would return on the same placement, so an
/// anneal driven by it accepts the same moves, visits the same states, and
/// emits byte-identical checkpoints and results. It holds by construction:
/// RowObjective owns the arithmetic, (Tl·SD + Tr·SH) / SW over int64 sums
/// (see its class comment), and only SH = ΣW·hops moves with the
/// placement. This class keeps SH up to date — the uniform objective
/// (W ≡ 1) adds the byte change of each recomputed column, a weighted one
/// adds ΣW·Δhops over it — and hands it to the same RowObjective::score
/// the full evaluator calls, so both compute one expression on the same
/// integers at any Tl and Tr. The worst-case blend keeps each column's
/// largest cost, Tl·|j - i| + Tr·hops as HopWeights::path_cost forms it,
/// and takes the maximum over columns.
/// Set XLP_CHECK_DELTA=1 to run the full evaluator in lockstep and abort
/// (InvariantError) on any divergence.
///
/// Objectives delta_supported() rejects — a secondary-metric blend
/// (RowObjective::set_secondary), which scores an opaque row-level function,
/// or rows longer than 256 routers, whose hop counts (up to n - 1) no
/// longer fit a byte — fall back to full evaluation (incremental() reports
/// false), so call sites stay uniform.
///
/// Evaluation accounting: every propose_* call bumps the owning
/// objective's evaluations() counter by exactly one, the same as one
/// evaluate() call — Fig. 7 / Fig. 12 runtime units and SA checkpoints are
/// unchanged. Construction counts nothing.
///
/// Not thread-safe; build one per annealing loop (portfolio chains each
/// build their own, sharing only the atomic counter).
class DeltaRowObjective {
 public:
  /// Hop table over `state.decode()` for the SA connection-matrix loop.
  /// The matrix is copied; drive it exclusively through propose_flip /
  /// commit / revert.
  DeltaRowObjective(const RowObjective& objective,
                    const topo::ConnectionMatrix& state);

  /// Hop table over an explicit placement for the D&C merge scan.
  DeltaRowObjective(const RowObjective& objective, topo::RowTopology base);

  [[nodiscard]] int row_size() const noexcept { return n_; }

  /// False when the objective forced the full-evaluation fallback.
  [[nodiscard]] bool incremental() const noexcept { return incremental_; }

  /// Score of the placement with connection point `flat_idx` flipped
  /// (matrix mode only). Counts one evaluation. The proposal stays pending
  /// until commit() or revert(); exactly one of them must be called before
  /// the next propose_*.
  [[nodiscard]] double propose_flip(int flat_idx);

  /// Score of the placement with one `link` instance added (topology mode
  /// only). Counts one evaluation. Pending like propose_flip.
  [[nodiscard]] double propose_add(topo::RowLink link);

  /// Accepts the pending proposal: the proposed placement becomes current.
  void commit();

  /// Rejects the pending proposal: restores every hop column, column
  /// maximum and adjacency entry the proposal touched, and the hop sum.
  void revert();

  /// Work of the incremental path since construction, host-independent:
  /// hop columns recomputed by proposals, and bytes revert() copied back
  /// from the mirror. Zero on the full-evaluation fallback.
  struct Work {
    long columns = 0;
    long restored_bytes = 0;
  };
  [[nodiscard]] const Work& work() const noexcept { return work_; }

  /// Bytes one vector lane covers: column lengths are padded to it, and
  /// recomputed row ranges are rounded up to it.
  static constexpr int kLanes = 16;

 private:
  struct LinkChange {
    topo::RowLink link;
    int delta = 0;  // +1 added, -1 removed
  };

  [[nodiscard]] std::size_t at(int column) const noexcept {
    return static_cast<std::size_t>(column) *
           static_cast<std::size_t>(stride_);
  }
  /// W(i, j) for every source i of column j.
  [[nodiscard]] const std::int64_t* weight_column(int j) const noexcept {
    return weights_ +
           static_cast<std::size_t>(j) * static_cast<std::size_t>(n_);
  }
  /// `rows` rounded up to whole lanes.
  [[nodiscard]] static int lanes_for(int rows) noexcept {
    return (rows + kLanes - 1) / kLanes * kLanes;
  }

  void build_tables(const topo::RowTopology& row);
  bool apply_link(topo::RowLink link, int delta);
  /// Recomputes column j over its first `len` sources; returns whether any
  /// hop changed against the mirror, folding the change into hop_sum_ and
  /// the column maximum.
  bool recompute_column(int j, int len);
  [[nodiscard]] double column_max_cost(int j) const;
  void recompute_affected();
  [[nodiscard]] double reduce_and_count();
  [[nodiscard]] double checked(double value) const;
  void flip_matrix_links(int flat_idx);
  void clear_pending();

  const RowObjective* objective_;
  int n_;
  bool incremental_;
  bool check_;  // XLP_CHECK_DELTA lockstep mode
  bool pending_ = false;

  // Matrix mode: the mutable SA state; flips are applied at propose time
  // and undone by revert. Topology mode: disengaged.
  std::optional<topo::ConnectionMatrix> matrix_;
  // Topology mode (and its fallback): the placement, with the pending link
  // present between propose_add and commit/revert. Matrix mode: unused.
  topo::RowTopology row_;
  int pending_bit_ = -1;
  std::optional<topo::RowLink> pending_link_;

  // hops_[at(j) + i] is hops(i, j) for i < j (see the class comment);
  // committed_ mirrors it outside a pending proposal. iota_[i] == i.
  int stride_ = 0;
  int words_ = 0;  // 64-bit words per router bitset
  // hop_cost_[h] is Tr·h; wire_cost_[d] is Tl·d.
  std::vector<double> hop_cost_;
  std::vector<double> wire_cost_;
  std::vector<std::uint8_t> hops_;
  std::vector<std::uint8_t> committed_;
  std::vector<std::uint8_t> iota_;
  std::vector<std::uint8_t> scratch_;  // recompute_column's running min
  // Express-link multiplicity per (lo, hi) pair, and for each router hi the
  // bitset of sources lo of the express links (lo, hi) present.
  std::vector<int> link_count_;
  std::vector<std::uint64_t> sources_;
  // The pending proposal: a bitset of the columns whose hops changed, and
  // the column block [span_lo_, span_hi_) it recomputed.
  std::vector<std::uint64_t> changed_;
  int span_lo_ = 0;
  int span_hi_ = 0;

  // Reduction state: hop_sum_ is SH over pairs i < j and weights_ the
  // objective's W (row j holds W(i, j) for every i; null when W ≡ 1).
  // Worst case: each column's largest cost, mirrored like the hop table.
  const std::int64_t* weights_ = nullptr;
  bool worst_ = false;
  std::int64_t hop_sum_ = 0;
  std::int64_t saved_hop_sum_ = 0;
  std::vector<double> col_max_;
  std::vector<double> committed_col_max_;

  // pending_changes_ is the proposal's link changes; toggled_ the subset
  // that changed adjacency (multiplicity crossed 0 <-> 1) — a duplicate
  // link routes nothing differently and triggers no recomputation.
  std::vector<LinkChange> pending_changes_;
  std::vector<LinkChange> toggled_;

  Work work_;
};

}  // namespace xlp::core
