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
/// allocations, on every move. This class caches only the per-pair cost
/// table of the *current* placement — the one quantity the objective's
/// reductions read — and, when links are toggled, recomputes the pairs
/// whose span contains a toggled link: a monotone path from i to j never
/// leaves [i, j], so every other pair keeps its cached cost. For a source i
/// the affected targets are j >= from(i), the smallest hi of a toggled link
/// (lo, hi) with lo >= i, and one forward pass over them rebuilds row i:
///   cost(i, j) = min over predecessors k of j, k >= i, of
///                cost(i, k) + link_cost(j - k).
///
/// Exactness contract: every score this class returns is bit-identical to
/// what RowObjective::evaluate would return on the same placement, so an
/// anneal driven by it accepts the same moves, visits the same states, and
/// emits byte-identical checkpoints and results. It holds because
/// RowObjective::delta_supported() admits only integer hop weights whose
/// costs stay below 2^53 even summed over all n^2 pairs: every path sum is
/// then an exact integer, so
///  - the minimum over last hops equals the full DP's minimum over first
///    hops (both are the exact shortest-path cost; the DP's hop and
///    first-hop tie-breaks pick among equal costs and never move a cost),
///  - the leftward table is the transpose of the rightward one (a leftward
///    monotone path is a rightward one reversed), written in the same pass,
///  - the uniform objective's running sum of all cells is exact, as is the
///    full evaluator's two-level sum, so both divide the same integer.
/// The weighted objective refreshes a per-row partial for every row whose
/// costs changed and sums the partials in the full evaluator's order; the
/// worst-case blend rescans the table for its maximum. Set
/// XLP_CHECK_DELTA=1 to run the full evaluator in lockstep and abort
/// (InvariantError) on any divergence.
///
/// Objectives delta_supported() rejects — a secondary-metric blend
/// (RowObjective::set_secondary), which scores an opaque row-level function,
/// or hop weights outside the exact-integer bound — fall back to full
/// evaluation (incremental() reports false), so call sites stay uniform.
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
  /// Cost cache over `state.decode()` for the SA connection-matrix loop.
  /// The matrix is copied; drive it exclusively through propose_flip /
  /// commit / revert.
  DeltaRowObjective(const RowObjective& objective,
                    const topo::ConnectionMatrix& state);

  /// Cost cache over an explicit placement for the D&C merge scan.
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

  /// Rejects the pending proposal: restores every cached cost, row partial
  /// and adjacency entry the proposal touched.
  void revert();

 private:
  struct CellSave {
    int i = 0;  // the rightward cell (i, j); its transpose holds the same
    int j = 0;
    double cost = 0.0;
  };
  struct RowSave {
    int row = 0;
    double part = 0.0;
  };
  struct LinkChange {
    topo::RowLink link;
    int delta = 0;  // +1 added, -1 removed
  };

  [[nodiscard]] std::size_t idx(int i, int j) const noexcept {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(j);
  }

  void build_tables(const topo::RowTopology& row);
  bool apply_link(topo::RowLink link, int delta);
  /// cost(i, j) from row i's cells (i, k < j), `from_i` pointing at row i:
  /// the cheapest last hop into j from a predecessor k >= i.
  [[nodiscard]] double best_into(const double* from_i, int i, int j) const;
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

  // cost_[i*n + j] is DirectionalShortestPaths::cost(i, j), both
  // directions. link_cost_[len] is HopWeights::link_cost(len).
  std::vector<double> cost_;
  std::vector<double> link_cost_;
  // Express-link multiplicity per (lo, hi) pair, and for each router hi the
  // sorted lo of every express link (lo, hi) present: its rightward
  // predecessors besides hi - 1.
  std::vector<int> link_count_;
  std::vector<std::vector<int>> pred_;

  // Reduction state. Uniform: total_ is the exact sum of every off-diagonal
  // cost. Weighted: one partial per source row (sum of w * cost in the full
  // evaluator's order), the constant weight sum, and a dirty-row bitmask so
  // each propose refreshes only the partials of rows whose costs changed.
  bool uniform_ = true;
  double total_ = 0.0;
  double saved_total_ = 0.0;
  double wsum_ = 0.0;
  std::vector<double> row_part_;
  std::vector<std::uint64_t> row_dirty_;
  // Preallocated to n_ entries (one propose saves each row at most once);
  // saved_rows_n_ is the bump index.
  std::vector<RowSave> saved_rows_;
  std::size_t saved_rows_n_ = 0;

  // Undo log of the pending proposal: one (cell, old cost) entry per
  // changed pair, in a preallocated buffer indexed by saved_cells_n_ (the
  // hot path bumps an index instead of paying push_back's grow check).
  // pending_changes_ is the proposal's link changes; toggled_ the subset
  // that changed adjacency (multiplicity crossed 0 <-> 1) — a duplicate
  // link routes nothing differently and triggers no recomputation.
  std::vector<CellSave> saved_cells_;
  std::size_t saved_cells_n_ = 0;
  std::vector<LinkChange> pending_changes_;
  std::vector<LinkChange> toggled_;
};

}  // namespace xlp::core
