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
/// allocations, on every move. This class caches the full per-pair span
/// table (cost / hops / next-hop, exactly the cells the full DP produces)
/// for the *current* placement and, when one link is added or removed,
/// recomputes only the pairs whose span contains a changed link: a
/// monotone path from i to j never leaves [i, j], so a pair (i, j) with no
/// changed link inside its span keeps its cached cells verbatim. The
/// objective reduction (uniform / weighted average, worst-case blend) is
/// then re-run over the cached table in the full evaluator's exact
/// summation order.
///
/// Exactness contract: every score this class returns is bit-identical to
/// what RowObjective::evaluate would return on the same placement — same
/// relaxation (route::detail::relax_monotone, shared code), same
/// tie-breaks, same summation order — so an anneal driven by it accepts
/// the same moves, visits the same states, and emits byte-identical
/// checkpoints and results. Set XLP_CHECK_DELTA=1 to run the full
/// evaluator in lockstep and abort (InvariantError) on any divergence.
///
/// Only the rightward cells (i < j) run through the incremental cascade.
/// With integer-valued hop weights every leftward monotone path is the
/// reverse of a rightward one over the same links, and every path sum is
/// exact in a double, so the leftward (cost, hops) table is the bitwise
/// transpose of the rightward one at every state — lexicographic
/// (cost, hops) optimality survives reversal; only the first-hop-length
/// tie-break (which picks next_, never read by the reduction) differs. A
/// transpose pass copies each changed cell into its leftward slot; leftward
/// next_ entries are never maintained.
///
/// Objectives RowObjective::delta_supported() rejects — a secondary-metric
/// blend (RowObjective::set_secondary), which scores an opaque row-level
/// function, or non-integer hop weights, where reversed sums could round
/// differently — fall back to full evaluation (incremental() reports
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
  /// Span cache over `state.decode()` for the SA connection-matrix loop.
  /// The matrix is copied; drive it exclusively through propose_flip /
  /// commit / revert.
  DeltaRowObjective(const RowObjective& objective,
                    const topo::ConnectionMatrix& state);

  /// Span cache over an explicit placement for the D&C merge scan.
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

  /// Rejects the pending proposal: restores every cached cell and
  /// adjacency entry the proposal touched.
  void revert();

 private:
  struct CellSave {
    std::size_t at = 0;
    std::size_t transpose = 0;  // idx of the opposite-direction cell
    double cost = 0.0;
    int hops = 0;
    int next = 0;
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
  void mark_row(int r);
  bool apply_link(topo::RowLink link, int delta);
  void recompute_affected();
  void apply_light(std::uint32_t entry, int span);
  void propagate_light(int src, int dst, double cost);
  void recompute_right(int i, int j);
  [[nodiscard]] double reduce_and_count();
  [[nodiscard]] double checked(double value) const;
  void flip_matrix_links(int flat_idx, std::vector<LinkChange>& out);

  const RowObjective* objective_;
  int n_;
  route::HopWeights hop_;
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

  // Span cache, same layout and (cost, hops) contents as
  // DirectionalShortestPaths; next_ only for rightward cells.
  std::vector<double> cost_;
  std::vector<int> hops_;
  std::vector<int> next_;
  // Express-link multiplicity per (lo, hi) pair and the derived per-router
  // directional neighbor lists (sorted, unique, local neighbor included) —
  // exactly RowTopology::neighbors_right/left without the allocations.
  std::vector<int> link_count_;
  std::vector<std::vector<int>> right_;
  std::vector<std::vector<int>> left_;

  // Worklist machinery for the event-driven recompute (see
  // recompute_affected), indexed by span. "Full" entries are cells that
  // must re-scan their whole candidate list (their stored winner was
  // removed or got worse); "light" entries carry one candidate whose value
  // changed (or that was just added) and resolve with a single relaxation
  // against the stored cell. Entry packing: bits 0..15 = the cell's source
  // i (its target is i + span), bits 16..31 = the candidate router (light
  // entries only).
  std::vector<std::vector<std::uint32_t>> buckets_full_;
  std::vector<std::vector<std::uint32_t>> buckets_light_;

  // Cached reduction state mirroring the two-level summation order of
  // DirectionalShortestPaths::average_cost / weighted_average_cost: one
  // partial per source row (uniform: sum of costs; weighted: sum of
  // w * cost), the constant weight sum, and a dirty-row bitmask so each
  // propose refreshes only the row partials its cell updates touched. A
  // row whose cells kept their cost bits yields a bitwise-identical
  // partial, so the cached value stands in for the full evaluator's.
  bool uniform_ = true;
  double wsum_ = 0.0;
  std::vector<double> row_part_;
  std::vector<std::uint64_t> row_dirty_;
  // Preallocated to n_ entries (one propose saves each row at most once);
  // saved_rows_n_ is the bump index, like saved_cells_n_.
  std::vector<RowSave> saved_rows_;
  std::size_t saved_rows_n_ = 0;

  // Undo logs for the pending proposal. toggled_ keeps the subset of
  // pending_changes_ that actually changed adjacency (multiplicity crossed
  // 0 <-> 1); a duplicate-link change routes nothing differently and
  // triggers no recomputation at all. The cell log is a preallocated
  // buffer indexed by saved_cells_n_ — the hot path writes through a
  // bounds-checked bump index (save_cell) instead of push_back, whose
  // out-of-line grow path costs more than the save itself.
  std::vector<CellSave> saved_cells_;
  std::size_t saved_cells_n_ = 0;
  std::vector<LinkChange> pending_changes_;
  std::vector<LinkChange> toggled_;

  void save_cell(std::size_t at, std::size_t transpose_at) {
    if (saved_cells_n_ == saved_cells_.size())
      saved_cells_.resize(saved_cells_.size() * 2);
    CellSave& s = saved_cells_[saved_cells_n_++];
    s.at = at;
    s.transpose = transpose_at;
    s.cost = cost_[at];
    s.hops = hops_[at];
    s.next = next_[at];
  }
};

}  // namespace xlp::core
