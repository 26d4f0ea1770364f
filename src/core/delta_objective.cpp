#include "core/delta_objective.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "route/directional_paths.hpp"
#include "util/check.hpp"

namespace xlp::core {

namespace {

// The column kernel's byte loops. Every pointer is a distinct column, so
// the loops vectorize with no overlap checks.

// out = min(a, b) over len bytes.
void min_of(std::uint8_t* __restrict out, const std::uint8_t* __restrict a,
            const std::uint8_t* __restrict b, int len) {
  for (int i = 0; i < len; ++i) out[i] = std::min(a[i], b[i]);
}

// acc = min(acc, b) over len bytes.
void min_into(std::uint8_t* __restrict acc, const std::uint8_t* __restrict b,
              int len) {
  for (int i = 0; i < len; ++i) acc[i] = std::min(acc[i], b[i]);
}

// col = in + 1, one more hop into the target column: sources past the
// target stay 0xFF, and the diagonal's 0xFF + 1 wraps to its 0. The change
// against `old` is added to `sum`; returns the OR of all differences.
unsigned add_hop(std::uint8_t* __restrict col,
                 const std::uint8_t* __restrict in,
                 const std::uint8_t* __restrict old,
                 const std::uint8_t* __restrict iota, std::uint8_t target,
                 int len, int& sum) {
  unsigned diff = 0;
  int change = 0;
  for (int i = 0; i < len; ++i) {
    const auto v = static_cast<std::uint8_t>(
        (in[i] + 1) | (iota[i] > target ? 0xFF : 0));
    col[i] = v;
    diff |= static_cast<std::uint8_t>(v ^ old[i]);
    change += v - old[i];
  }
  sum = change;
  return diff;
}

// Σ w[i]·(col[i] - old[i]) over len sources. A flip changes few of a
// column's hops, so 8-byte blocks equal to the mirror are skipped whole;
// columns are padded to kLanes bytes, so every block read is in bounds.
std::int64_t weighted_change(const std::uint8_t* __restrict col,
                             const std::uint8_t* __restrict old,
                             const std::int64_t* __restrict w, int len) {
  std::int64_t change = 0;
  for (int b = 0; b < len; b += 8) {
    std::uint64_t now;
    std::uint64_t was;
    std::memcpy(&now, col + b, sizeof now);
    std::memcpy(&was, old + b, sizeof was);
    if (now == was) continue;
    for (int i = b; i < std::min(b + 8, len); ++i)
      change += w[i] * (static_cast<int>(col[i]) - static_cast<int>(old[i]));
  }
  return change;
}

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
  stride_ = lanes_for(n_);
  words_ = (n_ + 63) / 64;
  const route::HopWeights& hop = objective_->hop_weights();
  hop_cost_.resize(256);  // every byte value
  for (int h = 0; h < 256; ++h) hop_cost_[h] = hop.router_cycles * h;
  wire_cost_.resize(static_cast<std::size_t>(n_));
  for (int d = 0; d < n_; ++d) wire_cost_[d] = hop.link_cycles_per_unit * d;
  link_count_.assign(static_cast<std::size_t>(n_) * n_, 0);
  sources_.assign(static_cast<std::size_t>(n_) * words_, 0);
  changed_.assign(static_cast<std::size_t>(words_), 0);
  for (const topo::RowLink& link : row.express_links())
    apply_link(link, +1);
  scratch_.assign(static_cast<std::size_t>(stride_), 0);
  iota_.resize(static_cast<std::size_t>(stride_));
  for (int i = 0; i < stride_; ++i)
    iota_[i] = static_cast<std::uint8_t>(i);
  worst_ = objective_->worst_weight_ > 0.0;
  col_max_.assign(static_cast<std::size_t>(n_), 0.0);

  // Every column in order over all its sources: the whole table is what
  // toggling every link at once would recompute. SH is summed afterwards,
  // and weights_ is set only then: a weighted change against the 0xFF
  // start could overflow it.
  hops_.assign(at(n_), 0xFF);
  for (int j = 0; j < n_; ++j) hops_[at(j) + static_cast<std::size_t>(j)] = 0;
  committed_ = hops_;
  for (int j = 1; j < n_; ++j) (void)recompute_column(j, lanes_for(j));
  committed_ = hops_;
  committed_col_max_ = col_max_;
  const std::vector<std::int64_t>& weights = objective_->pair_weights_;
  weights_ = weights.empty() ? nullptr : weights.data();
  hop_sum_ = 0;
  for (int j = 1; j < n_; ++j) {
    const std::uint8_t* col = hops_.data() + at(j);
    for (int i = 0; i < j; ++i)
      hop_sum_ += weights_ == nullptr ? col[i] : weight_column(j)[i] * col[i];
  }
}

bool DeltaRowObjective::apply_link(topo::RowLink link, int delta) {
  int& count = link_count_[static_cast<std::size_t>(link.lo) * n_ +
                           static_cast<std::size_t>(link.hi)];
  std::uint64_t& word =
      sources_[static_cast<std::size_t>(link.hi) * words_ +
               static_cast<std::size_t>(link.lo >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (link.lo & 63);
  if (delta > 0) {
    if (++count == 1) {
      word |= bit;
      return true;
    }
  } else {
    XLP_CHECK(count > 0, "removing an express link that is not present");
    if (--count == 0) {
      word &= ~bit;
      return true;
    }
  }
  return false;  // a duplicate link: routing is unchanged
}

bool DeltaRowObjective::recompute_column(int j, int len) {
  // `in` is min(col_{j-1}, col_k for the sources so far): column j - 1
  // itself until the first source, then the scratch column.
  const std::uint8_t* in = hops_.data() + at(j - 1);
  const std::uint64_t* src = sources_.data() + static_cast<std::size_t>(j) *
                                                   words_;
  for (int w = 0; w < words_; ++w)
    for (std::uint64_t bits = src[w]; bits != 0; bits &= bits - 1) {
      const std::uint8_t* from =
          hops_.data() + at(w * 64 + __builtin_ctzll(bits));
      if (in == scratch_.data())
        min_into(scratch_.data(), from, len);
      else
        min_of(scratch_.data(), in, from, len);
      in = scratch_.data();
    }
  std::uint8_t* col = hops_.data() + at(j);
  const std::uint8_t* old = committed_.data() + at(j);
  int sum = 0;
  const unsigned diff = add_hop(col, in, old, iota_.data(),
                                static_cast<std::uint8_t>(j), len, sum);
  if (diff == 0) return false;
  // Only sources i < j hold hops; the cells past them never change.
  hop_sum_ += weights_ == nullptr ? sum
                                  : weighted_change(col, old, weight_column(j),
                                                    std::min(len, j));
  if (worst_) col_max_[j] = column_max_cost(j);
  return true;
}

double DeltaRowObjective::column_max_cost(int j) const {
  const std::uint8_t* col = hops_.data() + at(j);
  double best = 0.0;  // the diagonal
  for (int i = 0; i < j; ++i)
    best = std::max(best, wire_cost_[j - i] + hop_cost_[col[i]]);
  return best;
}

void DeltaRowObjective::recompute_affected() {
  saved_hop_sum_ = hop_sum_;
  span_lo_ = span_hi_ = 0;
  if (toggled_.empty()) return;  // duplicate-only change: nothing moves
  int from = n_;
  int last_hi = 0;
  for (const LinkChange& change : toggled_) {
    from = std::min(from, change.link.hi);
    last_hi = std::max(last_hi, change.link.hi);
  }
  std::fill(changed_.begin(), changed_.end(), 0);
  const auto is_changed = [&](int c) {
    return ((changed_[static_cast<std::size_t>(c) >> 6] >> (c & 63)) & 1) !=
           0;
  };
  bool any_changed = false;
  int rows = 0;
  span_lo_ = span_hi_ = from;
  for (int j = from; j < n_; ++j) {
    if (j > last_hi && !any_changed) break;  // nothing left to propagate
    bool stale = is_changed(j - 1);
    for (const LinkChange& change : toggled_) {
      if (change.link.hi > j) continue;
      rows = std::max(rows, change.link.lo + 1);
      stale = stale || change.link.hi == j;
    }
    const std::uint64_t* src =
        sources_.data() + static_cast<std::size_t>(j) * words_;
    for (int w = 0; w < words_ && !stale; ++w)
      stale = (src[w] & changed_[w]) != 0;
    if (!stale) continue;
    ++work_.columns;
    span_hi_ = j + 1;
    if (recompute_column(j, lanes_for(rows))) {
      changed_[static_cast<std::size_t>(j) >> 6] |= std::uint64_t{1}
                                                    << (j & 63);
      any_changed = true;
    }
  }
}

double DeltaRowObjective::reduce_and_count() {
  objective_->count_evaluation();
  return objective_->score(
      hop_sum_,
      worst_ ? *std::max_element(col_max_.begin(), col_max_.end()) : 0.0);
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
  const std::uint8_t* bits = matrix_->layer_bits(layer);
  const auto set = [&](int i) { return bits[i] != 0; };
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
  if (incremental_) {
    const std::size_t lo = at(span_lo_);
    std::copy(hops_.begin() + lo, hops_.begin() + at(span_hi_),
              committed_.begin() + lo);
    if (worst_)
      std::copy(col_max_.begin() + span_lo_, col_max_.begin() + span_hi_,
                committed_col_max_.begin() + span_lo_);
  }
  clear_pending();
}

void DeltaRowObjective::clear_pending() {
  pending_ = false;
  pending_bit_ = -1;
  pending_link_.reset();
  span_lo_ = span_hi_ = 0;
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
    const std::size_t lo = at(span_lo_);
    const std::size_t hi = at(span_hi_);
    std::copy(committed_.begin() + lo, committed_.begin() + hi,
              hops_.begin() + lo);
    work_.restored_bytes += static_cast<long>(hi - lo);
    if (worst_)
      std::copy(committed_col_max_.begin() + span_lo_,
                committed_col_max_.begin() + span_hi_,
                col_max_.begin() + span_lo_);
    hop_sum_ = saved_hop_sum_;
  }
  clear_pending();
}

}  // namespace xlp::core
