#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "route/directional_paths.hpp"
#include "topo/row_topology.hpp"

namespace xlp::core {

class DeltaRowObjective;

/// The quantity P̄(n, C) minimizes: average head latency between router
/// pairs of one row (Section 4.2). Uniform weighting is the paper's
/// general-purpose objective; a weight matrix turns it into the
/// application-specific objective of Section 5.6.4.
///
/// Constant offsets shared by all placements (the destination-router cycle,
/// serialization, the column contribution) are deliberately excluded — they
/// do not change the argmin.
///
/// Arithmetic: a pair's head cost is Tl·|j - i| + Tr·hops(i, j) (Eq. 1),
/// and a leftward monotone path is a rightward one reversed, so pair i < j
/// carries one integer weight W(i, j) for both directions: 1 for the
/// uniform objective, and q(w_ij) + q(w_ji) for a weight matrix, where q
/// quantizes each weight once to an int64 on a power-of-two grid scaled to
/// the largest weight. Every average is then
///   (Tl·SD + Tr·SH) / SW,  SD = ΣW·|j - i|,  SH = ΣW·hops,  SW = ΣW
/// over pairs i < j: exact int64 sums, of which only SH depends on the
/// placement. The grid keeps n^2 · max q · (n - 1), a bound on SD and SH,
/// below 2^63 — about 39 bits of weight resolution at n = 256.
///
/// The evaluation counter tracks how many placements have been scored; the
/// paper's Fig. 7 and Fig. 12 report runtimes of algorithms whose cost is
/// dominated by exactly these evaluations, so the counter doubles as a
/// machine-independent runtime unit.
class RowObjective {
 public:
  /// Uniform pairwise objective for rows of n routers.
  RowObjective(int n, route::HopWeights weights);

  /// Weighted objective: `weights[i*n + j]` is the traffic demand from
  /// position i to position j within the row, finite and non-negative; the
  /// diagonal is ignored. If every off-diagonal weight is zero the
  /// objective falls back to uniform (placement is then irrelevant for this
  /// row, but evaluation must still be well-defined).
  RowObjective(int n, route::HopWeights weights,
               std::vector<double> pair_weights);

  [[nodiscard]] int row_size() const noexcept { return n_; }
  [[nodiscard]] const route::HopWeights& hop_weights() const noexcept {
    return hop_;
  }

  /// Scores a placement (lower is better). The row must have n routers.
  /// With a non-zero worst-case weight w, the score is
  /// (1-w)*average + w*max over pairs — a Table-2-aware variant that trades
  /// a little average latency for a better worst case.
  [[nodiscard]] double evaluate(const topo::RowTopology& row) const;

  /// Sets the worst-case blend weight, in [0, 1]. 0 (the default) is the
  /// paper's pure-average objective.
  void set_worst_case_weight(double weight);

  /// Blends a secondary row metric into the score:
  ///   (1 - weight) * primary + weight * metric(row).
  /// The fault subsystem uses this for reliability-aware placement (metric =
  /// degraded latency under link failures), but any row-scored criterion
  /// works. The metric must be size-agnostic — divide-and-conquer applies
  /// the objective to sub-rows. A zero weight (the default) disables the
  /// blend; passing weight 0 clears the metric.
  void set_secondary(double weight,
                     std::function<double(const topo::RowTopology&)> metric);

  /// True when the objective weights all pairs equally (the general-purpose
  /// case); lets the divide-and-conquer initializer reuse a half-solution
  /// for both halves.
  [[nodiscard]] bool is_uniform() const noexcept {
    return pair_weights_.empty();
  }

  /// Number of evaluate() calls so far, *including* calls made through
  /// sub-objectives derived with sub_objective() — the divide-and-conquer
  /// initializer's recursive work is part of its runtime — and incremental
  /// scores produced by a DeltaRowObjective built over this objective.
  /// Thread-safe: portfolio chains share one root objective across the
  /// thread pool, so the counter uses relaxed atomic increments (each
  /// increment is an independent tally; no ordering is implied).
  [[nodiscard]] long evaluations() const noexcept {
    return evals_->load(std::memory_order_relaxed);
  }
  void reset_evaluations() noexcept {
    evals_->store(0, std::memory_order_relaxed);
  }

  /// True when evaluate() can be reproduced incrementally by a
  /// DeltaRowObjective: every uniform, weighted and worst-case-blend
  /// objective over rows of at most 256 routers, whose hop counts (up to
  /// n - 1) fit the delta evaluator's byte table. Both evaluators compute
  /// the same expression over the same int64 sums, so they agree bit for
  /// bit at any hop weights. A secondary-metric blend (set_secondary)
  /// scores an opaque row-level function; it, and longer rows, force full
  /// evaluation.
  [[nodiscard]] bool delta_supported() const noexcept;

  /// Objective for the sub-row covering positions [lo, lo+len): uniform
  /// objectives are position-independent; weighted objectives slice the
  /// weight matrix. Used by the divide-and-conquer initializer.
  [[nodiscard]] RowObjective sub_objective(int lo, int len) const;

 private:
  // The incremental evaluator keeps SH up to date over its own hop table;
  // it needs the pair weights, score(), the shared counter, and the
  // uncounted evaluation below for its XLP_CHECK_DELTA lockstep mode.
  friend class DeltaRowObjective;

  /// Computes SD and SW from pair_weights_.
  void fold_constant_sums();

  /// The score of a placement whose hop sum is `hop_sum` (SH) and whose
  /// largest pair cost is `max_cost` (read only under a worst-case blend),
  /// before any secondary blend.
  [[nodiscard]] double score(std::int64_t hop_sum,
                             double max_cost) const noexcept;

  /// evaluate() without the precondition and counter bump: the
  /// cross-check path scores a placement the delta evaluator already
  /// counted, so counting again would double evaluations().
  [[nodiscard]] double evaluate_uncounted(const topo::RowTopology& row) const;

  void count_evaluation() const noexcept {
    evals_->fetch_add(1, std::memory_order_relaxed);
  }

  int n_;
  route::HopWeights hop_;
  // W(i, j) at [i*n + j] and [j*n + i], 0 on the diagonal; empty when
  // W ≡ 1 (uniform).
  std::vector<std::int64_t> pair_weights_;
  std::int64_t dist_sum_ = 0;    // SD
  std::int64_t weight_sum_ = 0;  // SW
  double worst_weight_ = 0.0;
  double secondary_weight_ = 0.0;
  std::function<double(const topo::RowTopology&)> secondary_;
  // Shared with sub-objectives so recursive work is attributed to the root.
  std::shared_ptr<std::atomic<long>> evals_ =
      std::make_shared<std::atomic<long>>(0);
};

}  // namespace xlp::core
