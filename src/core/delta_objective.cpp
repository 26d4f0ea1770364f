#include "core/delta_objective.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "route/directional_paths.hpp"
#include "util/check.hpp"

namespace xlp::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool check_delta_enabled() {
  const char* env = std::getenv("XLP_CHECK_DELTA");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Inserts `value` into a sorted unique vector; no-op when present.
void sorted_insert(std::vector<int>& values, int value) {
  const auto it = std::lower_bound(values.begin(), values.end(), value);
  if (it == values.end() || *it != value) values.insert(it, value);
}

void sorted_erase(std::vector<int>& values, int value) {
  const auto it = std::lower_bound(values.begin(), values.end(), value);
  if (it != values.end() && *it == value) values.erase(it);
}

}  // namespace

void DeltaRowObjective::mark_row(int r) {
  row_dirty_[static_cast<std::size_t>(r) >> 6] |= std::uint64_t{1}
                                                  << (r & 63);
}

DeltaRowObjective::DeltaRowObjective(const RowObjective& objective,
                                     const topo::ConnectionMatrix& state)
    : objective_(&objective),
      n_(objective.row_size()),
      hop_(objective.hop_weights()),
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
      hop_(objective.hop_weights()),
      incremental_(objective.delta_supported()),
      check_(check_delta_enabled()),
      row_(std::move(base)) {
  XLP_REQUIRE(row_.size() == n_,
              "placement and objective sizes must match");
  if (incremental_) build_tables(row_);
}

void DeltaRowObjective::build_tables(const topo::RowTopology& row) {
  const std::size_t cells = static_cast<std::size_t>(n_) * n_;
  cost_.assign(cells, kInf);
  hops_.assign(cells, -1);
  next_.assign(cells, -1);
  link_count_.assign(cells, 0);
  for (const topo::RowLink& link : row.express_links())
    ++link_count_[idx(link.lo, link.hi)];

  // Directional neighbor lists, identical to neighbors_right/left: sorted,
  // unique, with the implicit local neighbor (express links span >= 2, so
  // the local entry never collides with an express one).
  right_.assign(static_cast<std::size_t>(n_), {});
  left_.assign(static_cast<std::size_t>(n_), {});
  for (int r = 0; r < n_; ++r) {
    if (r + 1 < n_) right_[r].push_back(r + 1);
    for (int h = r + 2; h < n_; ++h)
      if (link_count_[idx(r, h)] > 0) right_[r].push_back(h);
    for (int l = 0; l + 2 <= r; ++l)
      if (link_count_[idx(l, r)] > 0) left_[r].push_back(l);
    if (r - 1 >= 0) left_[r].push_back(r - 1);
  }

  XLP_REQUIRE(n_ <= 0xffff, "row too large for worklist entry packing");
  buckets_full_.assign(static_cast<std::size_t>(n_), {});
  buckets_light_.assign(static_cast<std::size_t>(n_), {});
  for (int s = 0; s < n_; ++s) {
    buckets_full_[s].reserve(32);
    buckets_light_[s].reserve(64);
  }
  saved_cells_.resize(512);
  saved_cells_n_ = 0;
  saved_rows_.resize(static_cast<std::size_t>(n_));
  saved_rows_n_ = 0;

  // The same span-ordered DP as DirectionalShortestPaths::compute, down to
  // the shared relaxation — the cache must hold the exact cells the full
  // evaluator would build. Rightward cells only; each leftward (cost, hops)
  // is their transpose (see the class comment).
  for (int i = 0; i < n_; ++i) {
    cost_[idx(i, i)] = 0.0;
    hops_[idx(i, i)] = 0;
  }
  for (int span = 1; span < n_; ++span) {
    for (int i = 0; i + span < n_; ++i) {
      const int j = i + span;
      for (const int k : right_[i]) {
        if (k > j) break;
        if (cost_[idx(k, j)] < kInf)
          route::detail::relax_monotone(hop_, i, k, cost_[idx(k, j)],
                                        hops_[idx(k, j)], cost_[idx(i, j)],
                                        hops_[idx(i, j)], next_[idx(i, j)]);
      }
      cost_[idx(j, i)] = cost_[idx(i, j)];
      hops_[idx(j, i)] = hops_[idx(i, j)];
    }
  }

  // Per-row reduction partials in the full evaluator's exact per-row
  // summation order (see DirectionalShortestPaths::average_cost).
  const std::vector<double>& weights = objective_->pair_weights_;
  uniform_ = weights.empty() || objective_->weights_all_zero_;
  row_part_.assign(static_cast<std::size_t>(n_), 0.0);
  row_dirty_.assign(static_cast<std::size_t>((n_ + 63) / 64), 0);
  wsum_ = 0.0;
  for (int i = 0; i < n_; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * n_;
    if (uniform_) {
      double part = 0.0;
      for (int j = 0; j < i; ++j) part += cost_[base + j];
      for (int j = i + 1; j < n_; ++j) part += cost_[base + j];
      row_part_[i] = part;
    } else {
      double row_total = 0.0;
      double row_wsum = 0.0;
      for (int j = 0; j < n_; ++j) {
        if (i == j) continue;
        row_total += weights[base + j] * cost_[base + j];
        row_wsum += weights[base + j];
      }
      row_part_[i] = row_total;
      wsum_ += row_wsum;
    }
  }
  XLP_REQUIRE(uniform_ || wsum_ > 0.0, "weights must have a positive sum");
}

bool DeltaRowObjective::apply_link(topo::RowLink link, int delta) {
  int& count = link_count_[idx(link.lo, link.hi)];
  if (delta > 0) {
    if (++count == 1) {
      sorted_insert(right_[link.lo], link.hi);
      sorted_insert(left_[link.hi], link.lo);
      return true;
    }
  } else {
    XLP_CHECK(count > 0, "removing an express link that is not present");
    if (--count == 0) {
      sorted_erase(right_[link.lo], link.hi);
      sorted_erase(left_[link.hi], link.lo);
      return true;
    }
  }
  return false;  // a duplicate link: routing is unchanged
}

void DeltaRowObjective::recompute_right(int i, int j) {
  const std::size_t ij = idx(i, j);
  save_cell(ij, idx(j, i));
  double cost = kInf;
  int hops = -1;
  int next = -1;
  for (const int k : right_[i]) {
    if (k > j) break;
    if (cost_[idx(k, j)] < kInf)
      route::detail::relax_monotone(hop_, i, k, cost_[idx(k, j)],
                                    hops_[idx(k, j)], cost, hops, next);
  }
  // Only a cost or hop change can influence larger-span cells (next-hop is
  // not a relaxation input). The cells that read (i, j) rightward are
  // (p, j) with an edge p -> i, i.e. p in left_[i] — all strictly larger
  // spans, so they land in buckets not yet drained. An improved cell may be
  // adopted by any of them (light entries); a worsened cell can never beat
  // a dependent's stored maximum — which already dominated the old, better
  // value — so only dependents that stored it as their winner are affected,
  // and those need a full re-scan.
  if (cost != cost_[ij] || hops != hops_[ij]) {
    if (cost != cost_[ij]) mark_row(i);
    const bool improved = cost < cost_[ij] - 1e-12 ||
                          (cost < cost_[ij] + 1e-12 && hops < hops_[ij]);
    if (improved) {
      propagate_light(i, j, cost);
    } else {
      for (const int p : left_[i])
        if (next_[idx(p, j)] == i)
          buckets_full_[j - p].push_back(static_cast<std::uint32_t>(p));
    }
  }
  cost_[ij] = cost;
  hops_[ij] = hops;
  next_[ij] = next;
}

// Queues light entries for every in-neighbor of the just-updated cell
// (src -> dst, stored value `cost`), filtered at push time: a dependent
// whose stored cost already beats the candidate by more than the tie band
// can only sink further below it (outside a full re-scan its value never
// rises, and a re-scan reads every candidate from the tables, needing no
// entry), so the relaxation is a foregone reject and the entry is dropped.
// A dependent that stored this cell as its winner always passes the
// filter: its stored value is the candidate's old contribution, and an
// improved contribution is below it (or tied within the band).
void DeltaRowObjective::propagate_light(int src, int dst, double cost) {
  for (const int p : left_[src])
    if (hop_.link_cost(src - p) + cost < cost_[idx(p, dst)] + 1e-12)
      buckets_light_[dst - p].push_back(
          static_cast<std::uint32_t>(p) |
          (static_cast<std::uint32_t>(src) << 16));
}

void DeltaRowObjective::apply_light(std::uint32_t entry, int span) {
  const int src = static_cast<int>(entry & 0xffffu);
  const int k = static_cast<int>(entry >> 16);
  const int dst = src + span;
  const std::size_t at = idx(src, dst);
  const std::size_t dep = idx(k, dst);
  if (!(cost_[dep] < kInf)) return;  // mirror the full scan's guard
  // Fast reject: relax_monotone can only replace the stored cell when the
  // candidate's cost is inside the tie band, so the common lose case takes
  // one predictable comparison (same expression as relax_monotone, so the
  // bits agree). A rejected candidate still escalates when it is the
  // stored winner — its contribution moved, so the cell must re-scan.
  const double quick = hop_.link_cost(k - src) + cost_[dep];
  if (!(quick < cost_[at] + 1e-12)) {
    if (next_[at] == k) recompute_right(src, dst);
    return;
  }
  if (quick < cost_[at] - 1e-12) {
    // Clear win, outside the tie band: relax_monotone would adopt the
    // candidate unconditionally (quick is the same expression, bit for
    // bit), so skip its tie-break chain and store the result directly.
    save_cell(at, idx(dst, src));
    mark_row(src);
    cost_[at] = quick;
    hops_[at] = hops_[dep] + 1;
    next_[at] = k;
    propagate_light(src, dst, quick);
    return;
  }
  double cost = cost_[at];
  int hops = hops_[at];
  int next = next_[at];
  route::detail::relax_monotone(hop_, src, k, cost_[dep], hops_[dep], cost,
                                hops, next);
  if (cost != cost_[at] || hops != hops_[at] || next != next_[at]) {
    // The candidate beat the stored cell, so it beats every other
    // candidate's current value (each is <= the stored maximum): the cell
    // is exactly the candidate's path, as a full re-scan would conclude.
    save_cell(at, idx(dst, src));
    const bool value_changed = cost != cost_[at] || hops != hops_[at];
    if (cost != cost_[at]) mark_row(src);
    cost_[at] = cost;
    hops_[at] = hops;
    next_[at] = next;
    if (!value_changed) return;  // next-hop-only change: no one reads it
    propagate_light(src, dst, cost);
  } else if (next == k) {
    // The stored winner's own contribution changed (its dependency moved)
    // yet failed to beat its previous value: it got worse, and the true
    // best may now be any other candidate — re-scan the whole list.
    recompute_right(src, dst);
  }
}

void DeltaRowObjective::recompute_affected() {
  // A monotone path from i to j never leaves [i, j], so only pairs whose
  // span contains a changed link can change. Of those, almost every
  // affected cell resolves with a single relaxation: the shared relax
  // tie-break (cost, then hops, then longest first hop) is a strict total
  // order over candidates — two distinct candidates always differ in
  // first-hop length — so the stored cell is the order-maximum of its
  // candidates and the scan's outcome does not depend on scan position.
  // Relaxing one added/changed candidate against the stored maximum
  // therefore reproduces exactly what the full re-scan would store. Only
  // when the stored winner itself is removed or got worse does the true
  // maximum hide among the other candidates, forcing a full re-scan.
  if (toggled_.empty()) return;  // duplicate-only change: nothing moves

  // Seeds. An added link (lo, hi) inserts one candidate into every
  // rightward cell (lo, j >= hi) — light entries. A removed link deletes a
  // candidate: cells that did not store it as winner keep their maximum
  // verbatim (no entry at all); cells that did must re-scan — full
  // entries.
  for (const LinkChange& change : toggled_) {
    const int lo = change.link.lo;
    const int hi = change.link.hi;
    const auto ulo = static_cast<std::uint32_t>(lo);
    if (change.delta > 0) {
      // The new candidate for cell (lo, j) reads dependency (hi, j), which
      // is already final iff no toggled link fits inside [hi, j] — only
      // cells whose span contains a toggled link ever change. For those j
      // the candidate is evaluated right here: a contiguous compare over
      // the two cost rows rejects the common lose case (same expression as
      // apply_light's fast reject), and the rare winner goes through
      // apply_light for the exact relax and its propagation. Cells past
      // the safety threshold fall back to a queued light entry.
      int j_unsafe = n_;  // first j whose dependency (hi, j) may still move
      for (const LinkChange& other : toggled_)
        if (other.link.lo >= hi) j_unsafe = std::min(j_unsafe, other.link.hi);
      const std::uint32_t entry = ulo | (static_cast<std::uint32_t>(hi) << 16);
      const double base = hop_.link_cost(hi - lo);
      const double* dep = cost_.data() + static_cast<std::size_t>(hi) * n_;
      const double* cell = cost_.data() + static_cast<std::size_t>(lo) * n_;
      for (int j = hi; j < j_unsafe; ++j)
        if (base + dep[j] < cell[j] + 1e-12) apply_light(entry, j - lo);
      for (int j = j_unsafe; j < n_; ++j)
        buckets_light_[j - lo].push_back(entry);
    } else {
      for (int j = hi; j < n_; ++j)
        if (next_[idx(lo, j)] == hi) buckets_full_[j - lo].push_back(ulo);
    }
  }

  // Drain in increasing span order: every dependency of a cell has
  // strictly smaller span, so each entry is resolved after all its inputs
  // are final — the full DP's evaluation order restricted to the affected
  // set. Full entries drain before light ones so a light relax never runs
  // ahead of a pending re-scan of the same cell; both kinds push further
  // light work into strictly larger buckets only. A light relax against a
  // cell that was already re-scanned (or updated by a sibling entry) is a
  // harmless no-op: the stored value is already the maximum over all
  // candidates' final values, which no single candidate beats.
  for (int span = 2; span < n_; ++span) {
    std::vector<std::uint32_t>& full = buckets_full_[span];
    for (std::size_t b = 0; b < full.size(); ++b) {
      const int i = static_cast<int>(full[b]);
      recompute_right(i, i + span);
    }
    full.clear();
    std::vector<std::uint32_t>& light = buckets_light_[span];
    for (std::size_t b = 0; b < light.size(); ++b)
      apply_light(light[b], span);
    light.clear();
  }

  // Transpose pass: copy each changed rightward cell's (cost, hops) into
  // its leftward transpose, which the symmetry argument (class comment)
  // proves is exactly what a leftward cascade would have stored. Unchanged
  // saves (a re-scan that concluded the same triple) leave their transpose
  // untouched. Duplicate saves are harmless: the first visit updates the
  // transpose, later visits see it already equal.
  const std::size_t changed = saved_cells_n_;
  for (std::size_t s = 0; s < changed; ++s) {
    const std::size_t at = saved_cells_[s].at;
    const std::size_t m = saved_cells_[s].transpose;
    if (cost_[m] != cost_[at] || hops_[m] != hops_[at]) {
      save_cell(m, at);
      if (cost_[m] != cost_[at]) mark_row(static_cast<int>(m) / n_);
      cost_[m] = cost_[at];
      hops_[m] = hops_[at];
    }
  }
}

double DeltaRowObjective::reduce_and_count() {
  objective_->count_evaluation();
  // Mirrors DirectionalShortestPaths::average_cost / weighted_average_cost
  // / max_cost bit-for-bit: both sides sum one partial per source row and
  // then sum the partials, so only the rows whose cost bits changed need a
  // fresh partial — the rest reuse their cached, bitwise-identical value.
  const std::vector<double>& weights = objective_->pair_weights_;
  const std::size_t words = row_dirty_.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = row_dirty_[w];
    row_dirty_[w] = 0;
    while (bits != 0) {
      const int i = static_cast<int>(w * 64) + __builtin_ctzll(bits);
      bits &= bits - 1;
      RowSave& save = saved_rows_[saved_rows_n_++];
      save.row = i;
      save.part = row_part_[i];
      const std::size_t base = static_cast<std::size_t>(i) * n_;
      if (uniform_) {
        double row = 0.0;
        for (int j = 0; j < i; ++j) row += cost_[base + j];
        for (int j = i + 1; j < n_; ++j) row += cost_[base + j];
        row_part_[i] = row;
      } else {
        double row_total = 0.0;
        for (int j = 0; j < n_; ++j) {
          if (i == j) continue;
          row_total += weights[base + j] * cost_[base + j];
        }
        row_part_[i] = row_total;
      }
    }
  }
  double total = 0.0;
  for (int i = 0; i < n_; ++i) total += row_part_[i];
  const double average =
      uniform_ ? total / (static_cast<double>(n_) * (n_ - 1)) : total / wsum_;
  const double worst_weight = objective_->worst_weight_;
  if (worst_weight <= 0.0) return average;
  double max_cost = cost_[0];
  const std::size_t cells = static_cast<std::size_t>(n_) * n_;
  for (std::size_t at = 1; at < cells; ++at)
    if (cost_[at] > max_cost) max_cost = cost_[at];
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

void DeltaRowObjective::flip_matrix_links(int flat_idx,
                                          std::vector<LinkChange>& out) {
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
  toggled_.clear();
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
  saved_cells_n_ = 0;
  saved_rows_n_ = 0;
  pending_changes_.clear();
  flip_matrix_links(flat_idx, pending_changes_);
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
  saved_cells_n_ = 0;
  saved_rows_n_ = 0;
  pending_changes_.clear();
  pending_changes_.push_back({link, +1});
  toggled_.clear();
  if (apply_link(link, +1)) toggled_.push_back({link, +1});
  recompute_affected();
  return checked(reduce_and_count());
}

void DeltaRowObjective::commit() {
  XLP_REQUIRE(pending_, "no pending proposal to commit");
  pending_ = false;
  pending_bit_ = -1;
  pending_link_.reset();
  saved_cells_n_ = 0;
  saved_rows_n_ = 0;
  pending_changes_.clear();
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
    for (std::size_t s = saved_cells_n_; s-- > 0;) {
      const CellSave& save = saved_cells_[s];
      cost_[save.at] = save.cost;
      hops_[save.at] = save.hops;
      next_[save.at] = save.next;
    }
    for (std::size_t s = saved_rows_n_; s-- > 0;)
      row_part_[saved_rows_[s].row] = saved_rows_[s].part;
  }
  pending_ = false;
  pending_bit_ = -1;
  pending_link_.reset();
  saved_cells_n_ = 0;
  saved_rows_n_ = 0;
  pending_changes_.clear();
}

}  // namespace xlp::core
