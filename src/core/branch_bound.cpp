#include "core/branch_bound.hpp"

#include <limits>

#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace xlp::core {

BranchAndBound::BranchAndBound(const RowObjective& objective, int link_limit,
                               runctl::RunControl* control)
    : objective_(objective),
      n_(objective.row_size()),
      link_limit_(link_limit),
      control_(control),
      cut_express_(static_cast<std::size_t>(n_ > 1 ? n_ - 1 : 0), 0),
      current_(n_),
      best_(n_),
      best_value_(std::numeric_limits<double>::infinity()) {
  XLP_REQUIRE(link_limit >= 1, "link limit must be at least 1");
  for (int i = 0; i < n_; ++i)
    for (int j = i + 2; j < n_; ++j) candidates_.push_back({i, j});
  lower_bound_ = direct_connection_bound();
}

double BranchAndBound::direct_connection_bound() const {
  // The objective of the clique, the row with every possible express link:
  // adding a link never makes a path longer, so no placement scores below
  // it. One evaluation, exact.
  std::vector<topo::RowLink> full;
  for (int i = 0; i < n_; ++i)
    for (int j = i + 2; j < n_; ++j) full.push_back({i, j});
  const topo::RowTopology clique(n_, std::move(full));
  return objective_.evaluate(clique);
}

ExactResult BranchAndBound::solve() {
  const obs::ProfileScope profile_scope("bb.solve");
  best_value_ = objective_.evaluate(current_);
  best_ = current_;
  nodes_ = 0;
  stopped_ = false;
  dfs(0);
  ExactResult result{best_, best_value_, nodes_};
  if (stopped_ && control_ != nullptr) result.status = control_->status();
  return result;
}

void BranchAndBound::dfs(std::size_t next_candidate) {
  if (stopped_) return;
  if (control_ != nullptr && control_->stop_requested()) {
    stopped_ = true;
    return;
  }
  ++nodes_;
  const double value = objective_.evaluate(current_);
  if (value < best_value_) {
    best_value_ = value;
    best_ = current_;
  }
  // The incumbent already matches the strongest possible relaxation: no
  // superset can improve on it.
  if (best_value_ <= lower_bound_ + 1e-12) return;

  for (std::size_t c = next_candidate; c < candidates_.size(); ++c) {
    if (stopped_) return;
    const topo::RowLink link = candidates_[c];
    bool fits = true;
    for (int cut = link.lo; cut < link.hi; ++cut) {
      if (cut_express_[static_cast<std::size_t>(cut)] + 1 >
          link_limit_ - 1) {  // one layer is reserved for the local link
        fits = false;
        break;
      }
    }
    if (!fits) continue;
    for (int cut = link.lo; cut < link.hi; ++cut)
      ++cut_express_[static_cast<std::size_t>(cut)];
    current_.add_express(link);
    dfs(c + 1);
    current_.remove_express(link);
    for (int cut = link.lo; cut < link.hi; ++cut)
      --cut_express_[static_cast<std::size_t>(cut)];
  }
}

}  // namespace xlp::core
