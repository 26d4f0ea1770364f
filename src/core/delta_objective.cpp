#include "core/delta_objective.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "route/directional_paths.hpp"
#include "util/check.hpp"

namespace xlp::core {

namespace {

bool check_delta_enabled() {
  const char* env = std::getenv("XLP_CHECK_DELTA");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

DeltaRowObjective::DeltaRowObjective(const RowObjective& objective,
                                     const topo::ConnectionMatrix& state)
    : objective_(&objective),
      n_(objective.row_size()),
      incremental_(objective.delta_supported()),
      check_(check_delta_enabled()),
      matrix_(state),
      row_(n_) {
  XLP_REQUIRE(state.row_size() == n_,
              "matrix and objective sizes must match");
  if (incremental_) build_tables(matrix_->decode());
}

DeltaRowObjective::DeltaRowObjective(const RowObjective& objective,
                                     topo::RowTopology base)
    : objective_(&objective),
      n_(objective.row_size()),
      incremental_(objective.delta_supported()),
      check_(check_delta_enabled()),
      row_(std::move(base)) {
  XLP_REQUIRE(row_.size() == n_,
              "placement and objective sizes must match");
  if (incremental_) build_tables(row_);
}

void DeltaRowObjective::build_tables(const topo::RowTopology& row) {
  const std::size_t cells = static_cast<std::size_t>(n_) * n_;
  const route::HopWeights& hop = objective_->hop_weights();
  link_cost_.resize(static_cast<std::size_t>(n_));
  for (int len = 0; len < n_; ++len) link_cost_[len] = hop.link_cost(len);
  link_count_.assign(cells, 0);
  pred_.assign(static_cast<std::size_t>(n_), {});
  for (const topo::RowLink& link : row.express_links())
    apply_link(link, +1);
  // One propose logs each rightward pair at most once.
  saved_cells_.resize(cells / 2 + 1);
  saved_cells_n_ = 0;
  saved_rows_.resize(static_cast<std::size_t>(n_));
  saved_rows_n_ = 0;

  // One forward pass per source row over all its targets: the whole table
  // is the affected rectangle of toggling every link at once.
  cost_.assign(cells, 0.0);
  for (int i = 0; i < n_; ++i) {
    double* from_i = cost_.data() + idx(i, 0);
    for (int j = i + 1; j < n_; ++j) {
      from_i[j] = best_into(from_i, i, j);
      cost_[idx(j, i)] = from_i[j];
    }
  }

  const std::vector<double>& weights = objective_->pair_weights_;
  uniform_ = objective_->is_uniform();
  total_ = 0.0;
  wsum_ = 0.0;
  row_part_.assign(static_cast<std::size_t>(n_), 0.0);
  row_dirty_.assign(static_cast<std::size_t>((n_ + 63) / 64), 0);
  for (int i = 0; i < n_; ++i) {
    const std::size_t base = idx(i, 0);
    double row_total = 0.0;
    double row_wsum = 0.0;
    for (int j = 0; j < n_; ++j) {
      if (i == j) continue;
      if (uniform_) {
        total_ += cost_[base + j];
      } else {
        // DirectionalShortestPaths::weighted_average_cost's per-row order.
        row_total += weights[base + j] * cost_[base + j];
        row_wsum += weights[base + j];
      }
    }
    row_part_[i] = row_total;
    wsum_ += row_wsum;
  }
  XLP_REQUIRE(uniform_ || wsum_ > 0.0, "weights must have a positive sum");
}

bool DeltaRowObjective::apply_link(topo::RowLink link, int delta) {
  int& count = link_count_[idx(link.lo, link.hi)];
  std::vector<int>& pred = pred_[static_cast<std::size_t>(link.hi)];
  const auto at = std::lower_bound(pred.begin(), pred.end(), link.lo);
  if (delta > 0) {
    if (++count == 1) {
      pred.insert(at, link.lo);
      return true;
    }
  } else {
    XLP_CHECK(count > 0, "removing an express link that is not present");
    if (--count == 0) {
      pred.erase(at);
      return true;
    }
  }
  return false;  // a duplicate link: routing is unchanged
}

double DeltaRowObjective::best_into(const double* from_i, int i,
                                    int j) const {
  double best = from_i[j - 1] + link_cost_[1];
  for (const int k : pred_[j])
    if (k >= i) best = std::min(best, from_i[k] + link_cost_[j - k]);
  return best;
}

void DeltaRowObjective::recompute_affected() {
  saved_total_ = total_;
  if (toggled_.empty()) return;  // duplicate-only change: nothing moves
  const auto mark_row = [&](int r) {
    row_dirty_[static_cast<std::size_t>(r) >> 6] |= std::uint64_t{1}
                                                    << (r & 63);
  };
  int max_lo = -1;
  for (const LinkChange& change : toggled_)
    max_lo = std::max(max_lo, change.link.lo);
  for (int i = 0; i <= max_lo; ++i) {
    int from = n_;
    for (const LinkChange& change : toggled_)
      if (change.link.lo >= i) from = std::min(from, change.link.hi);
    double* from_i = cost_.data() + idx(i, 0);
    bool row_changed = false;
    for (int j = from; j < n_; ++j) {
      const double best = best_into(from_i, i, j);
      const double old = from_i[j];
      if (best == old) continue;
      saved_cells_[saved_cells_n_++] = {i, j, old};
      from_i[j] = best;
      cost_[idx(j, i)] = best;
      // Both directions; exact in integers (see the class comment).
      total_ += 2.0 * (best - old);
      row_changed = true;
      if (!uniform_) mark_row(j);
    }
    if (row_changed && !uniform_) mark_row(i);
  }
}

double DeltaRowObjective::reduce_and_count() {
  objective_->count_evaluation();
  double average;
  if (uniform_) {
    average = total_ / (static_cast<double>(n_) * (n_ - 1));
  } else {
    // Mirrors DirectionalShortestPaths::weighted_average_cost bit-for-bit:
    // both sides sum one partial per source row and then sum the partials,
    // so only rows whose costs changed need a fresh partial.
    const std::vector<double>& weights = objective_->pair_weights_;
    for (std::size_t w = 0; w < row_dirty_.size(); ++w) {
      std::uint64_t bits = row_dirty_[w];
      row_dirty_[w] = 0;
      while (bits != 0) {
        const int i = static_cast<int>(w * 64) + __builtin_ctzll(bits);
        bits &= bits - 1;
        saved_rows_[saved_rows_n_++] = {i, row_part_[i]};
        const std::size_t base = idx(i, 0);
        double row_total = 0.0;
        for (int j = 0; j < n_; ++j) {
          if (i == j) continue;
          row_total += weights[base + j] * cost_[base + j];
        }
        row_part_[i] = row_total;
      }
    }
    double total = 0.0;
    for (int i = 0; i < n_; ++i) total += row_part_[i];
    average = total / wsum_;
  }
  const double worst_weight = objective_->worst_weight_;
  if (worst_weight <= 0.0) return average;
  const double max_cost = *std::max_element(cost_.begin(), cost_.end());
  return (1.0 - worst_weight) * average + worst_weight * max_cost;
}

double DeltaRowObjective::checked(double value) const {
  if (!check_) return value;
  const topo::RowTopology placement = matrix_ ? matrix_->decode() : row_;
  const double reference = objective_->evaluate_uncounted(placement);
  if (value != reference) {
    std::ostringstream os;
    os.precision(17);
    os << "XLP_CHECK_DELTA: delta evaluation diverged from the full "
          "evaluator on "
       << placement.to_string() << ": delta=" << value
       << " full=" << reference;
    XLP_CHECK(value == reference, os.str());
  }
  return value;
}

void DeltaRowObjective::flip_matrix_links(int flat_idx) {
  const int interior = matrix_->interior();
  const int layer = flat_idx / interior;
  const int r = flat_idx % interior;
  const auto set = [&](int i) { return matrix_->bit(layer, i); };
  // decode() turns a maximal run of set bits over interior indices [a, b]
  // into the express link (a, b+2) in physical-router coordinates. One
  // flipped bit therefore merges, splits, extends, shrinks, creates or
  // destroys runs of this layer only — at most three links change, all
  // contained in the widest run's span.
  int a = r;
  while (a > 0 && set(a - 1)) --a;
  int b = r;
  while (b + 1 < interior && set(b + 1)) ++b;
  std::vector<LinkChange>& out = pending_changes_;
  if (!set(r)) {
    // Setting bit r fuses the runs on both sides into [a, b].
    if (a <= r - 1) out.push_back({{a, r + 1}, -1});
    if (r + 1 <= b) out.push_back({{r + 1, b + 2}, -1});
    out.push_back({{a, b + 2}, +1});
  } else {
    // Clearing bit r splits the run [a, b] around r.
    out.push_back({{a, b + 2}, -1});
    if (a <= r - 1) out.push_back({{a, r + 1}, +1});
    if (r + 1 <= b) out.push_back({{r + 1, b + 2}, +1});
  }
  matrix_->flip_flat(flat_idx);
  for (const LinkChange& change : out)
    if (apply_link(change.link, change.delta)) toggled_.push_back(change);
}

double DeltaRowObjective::propose_flip(int flat_idx) {
  XLP_REQUIRE(matrix_.has_value(),
              "propose_flip needs a connection-matrix evaluator");
  XLP_REQUIRE(!pending_, "resolve the pending proposal first");
  XLP_REQUIRE(flat_idx >= 0 && flat_idx < matrix_->bit_count(),
              "flat index out of range");
  pending_ = true;
  pending_bit_ = flat_idx;
  if (!incremental_) {
    matrix_->flip_flat(flat_idx);
    return objective_->evaluate(matrix_->decode());
  }
  flip_matrix_links(flat_idx);
  recompute_affected();
  return checked(reduce_and_count());
}

double DeltaRowObjective::propose_add(topo::RowLink link) {
  XLP_REQUIRE(!matrix_.has_value(),
              "propose_add needs a topology-mode evaluator");
  XLP_REQUIRE(!pending_, "resolve the pending proposal first");
  pending_ = true;
  pending_link_ = link;
  row_.add_express(link);
  if (!incremental_) return objective_->evaluate(row_);
  pending_changes_.push_back({link, +1});
  if (apply_link(link, +1)) toggled_.push_back({link, +1});
  recompute_affected();
  return checked(reduce_and_count());
}

void DeltaRowObjective::commit() {
  XLP_REQUIRE(pending_, "no pending proposal to commit");
  clear_pending();
}

void DeltaRowObjective::clear_pending() {
  pending_ = false;
  pending_bit_ = -1;
  pending_link_.reset();
  saved_cells_n_ = 0;
  saved_rows_n_ = 0;
  pending_changes_.clear();
  toggled_.clear();
}

void DeltaRowObjective::revert() {
  XLP_REQUIRE(pending_, "no pending proposal to revert");
  if (matrix_.has_value()) {
    matrix_->flip_flat(pending_bit_);
  } else if (pending_link_.has_value()) {
    const bool removed = row_.remove_express(*pending_link_);
    XLP_CHECK(removed, "pending link vanished from the placement");
  }
  if (incremental_) {
    for (auto it = pending_changes_.rbegin(); it != pending_changes_.rend();
         ++it)
      apply_link(it->link, -it->delta);
    for (std::size_t s = 0; s < saved_cells_n_; ++s) {
      const CellSave& save = saved_cells_[s];
      cost_[idx(save.i, save.j)] = save.cost;
      cost_[idx(save.j, save.i)] = save.cost;
    }
    total_ = saved_total_;
    for (std::size_t s = 0; s < saved_rows_n_; ++s)
      row_part_[saved_rows_[s].row] = saved_rows_[s].part;
  }
  clear_pending();
}

}  // namespace xlp::core
