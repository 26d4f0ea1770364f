#include "core/dnc.hpp"

#include <limits>
#include <optional>

#include "core/branch_bound.hpp"
#include "core/delta_objective.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace xlp::core {

namespace {

topo::RowTopology concat_halves(const topo::RowTopology& left,
                                const topo::RowTopology& right, int n) {
  std::vector<topo::RowLink> links = left.express_links();
  const int offset = left.size();
  for (const topo::RowLink& link : right.express_links())
    links.push_back({link.lo + offset, link.hi + offset});
  return topo::RowTopology(n, std::move(links));
}

topo::RowTopology solve_recursive(const RowObjective& objective,
                                  int link_limit, const DncOptions& options) {
  const int n = objective.row_size();
  if (link_limit <= 1 || n <= 2) return topo::RowTopology(n);
  if (options.control != nullptr && options.control->stop_requested())
    return topo::RowTopology(n);  // feasible fallback: the plain row
  if (n <= options.bb_threshold) {
    const obs::ProfileScope leaf_scope("dnc.bb_leaf");
    BranchAndBound bb(objective, link_limit, options.control);
    return bb.solve().placement;
  }

  const int half = n / 2;
  const RowObjective left_obj = objective.sub_objective(0, half);
  const RowObjective right_obj = objective.sub_objective(half, n - half);

  const topo::RowTopology left =
      solve_recursive(left_obj, link_limit - 1, options);
  // The paper's footnote: when both halves have the same size (and the
  // objective treats positions identically) the first half's placement is
  // reused directly.
  const topo::RowTopology right =
      (objective.is_uniform() && half == n - half)
          ? left
          : solve_recursive(right_obj, link_limit - 1, options);

  const topo::RowTopology base = concat_halves(left, right, n);

  const obs::ProfileScope merge_scope("dnc.merge");
  double best_value = objective.evaluate(base);  // the adjacent-pair case
  std::optional<topo::RowLink> best_link;
  // Every candidate is `base` plus one cross link, so the incremental
  // evaluator recomputes only the spans containing that link instead of
  // rebuilding shortest paths per candidate. Scores are bit-identical to
  // objective.evaluate(candidate), so the selected link cannot change.
  std::optional<DeltaRowObjective> scan;
  if (options.delta_eval) scan.emplace(objective, base);
  for (int i = 0; i < half; ++i) {
    if (options.control != nullptr && options.control->stop_requested())
      break;  // keep the best merge candidate evaluated so far
    for (int j = half; j < n; ++j) {
      if (j - i < 2) continue;  // adjacent: covered by the base candidate
      double value;
      if (scan.has_value()) {
        value = scan->propose_add({i, j});
        scan->revert();
      } else {
        topo::RowTopology candidate = base;
        candidate.add_express({i, j});
        value = objective.evaluate(candidate);
      }
      if (value < best_value) {
        best_value = value;
        best_link = topo::RowLink{i, j};
      }
    }
  }
  if (scan.has_value()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add("core.delta.columns", scan->work().columns);
    metrics.add("core.delta.restored_bytes", scan->work().restored_bytes);
  }
  if (!best_link.has_value()) return base;
  topo::RowTopology best = base;
  best.add_express(*best_link);
  return best;
}

}  // namespace

DncResult dnc_initial_solution(const RowObjective& objective, int link_limit,
                               const DncOptions& options) {
  XLP_REQUIRE(link_limit >= 1, "link limit must be at least 1");
  obs::MetricsRegistry::global().add("core.dnc.runs");
  const obs::ProfileScope profile_scope("dnc.initial");
  topo::RowTopology placement =
      solve_recursive(objective, link_limit, options);
  XLP_CHECK(placement.fits_link_limit(link_limit),
            "divide-and-conquer produced an infeasible placement");
  const double value = objective.evaluate(placement);
  DncResult result{std::move(placement), value};
  if (options.control != nullptr) result.status = options.control->status();
  return result;
}

}  // namespace xlp::core
