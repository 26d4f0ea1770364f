// Exhaustive oracle for the exact solver: a reflected Gray code visits
// every (n-2)x(C-1) connection matrix with one bit flip per step (step k
// flips bit ctz(k)), and Section 4.4.2's decode maps the matrices onto
// every placement that fits the link limit. One flip is exactly one
// DeltaRowObjective propose_flip + commit, so the walk's minimum is the
// true optimum at one delta move per placement, found with no pruning.
// BranchAndBound must return the same value, bit for bit.
//
// `ctest -L delta` and `ctest -L oracle` both run this suite; the
// asan-ubsan CI lane re-runs the delta label with XLP_CHECK_DELTA=1, which
// also checks every step of the walk against the full evaluator.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/branch_bound.hpp"
#include "core/delta_objective.hpp"
#include "core/objective.hpp"
#include "topo/connection_matrix.hpp"
#include "topo/row_topology.hpp"
#include "util/rng.hpp"

namespace xlp::core {
namespace {

double gray_walk_minimum(const RowObjective& objective, int link_limit) {
  const topo::ConnectionMatrix start(objective.row_size(), link_limit);
  DeltaRowObjective walk(objective, start);
  double best = objective.evaluate(start.decode());
  const long steps = 1L << start.bit_count();
  for (long k = 1; k < steps; ++k) {
    best = std::min(best, walk.propose_flip(__builtin_ctzl(k)));
    walk.commit();
  }
  return best;
}

enum class Kind { kUniform, kWeighted, kWorstCase };

RowObjective make_objective(Kind kind, int n) {
  if (kind == Kind::kWeighted) {
    Rng rng(500u + static_cast<std::uint64_t>(n));
    std::vector<double> w(static_cast<std::size_t>(n) * n, 0.0);
    for (double& x : w) x = rng.uniform01();
    return RowObjective(n, route::HopWeights{}, std::move(w));
  }
  RowObjective objective(n, route::HopWeights{});
  if (kind == Kind::kWorstCase) objective.set_worst_case_weight(0.5);
  return objective;
}

// Every P(n, C) with (n-2)(C-1) <= 14 bits. C stops at C_full (Eq. 4):
// past it every placement already fits, so P(n, C) is P(n, C_full). The
// bound keeps the XLP_CHECK_DELTA lane, a full evaluation per step under
// the sanitizers (~50 us at n = 8), to seconds: at 18 bits it takes minutes.
void expect_walk_matches_branch_and_bound(Kind kind) {
  constexpr int kMaxBits = 14;
  for (int n = 3; n - 2 <= kMaxBits; ++n)
    for (int c = 2; (n - 2) * (c - 1) <= kMaxBits &&
                    c <= topo::full_link_limit(n);
         ++c) {
      const RowObjective objective = make_objective(kind, n);
      const double walk = gray_walk_minimum(objective, c);
      const double exact = BranchAndBound(objective, c).solve().value;
      EXPECT_EQ(exact, walk) << "P(" << n << ", " << c << ")";
    }
}

TEST(GrayWalkOracle, BranchAndBoundFindsTheUniformOptimum) {
  expect_walk_matches_branch_and_bound(Kind::kUniform);
}

TEST(GrayWalkOracle, BranchAndBoundFindsTheWeightedOptimum) {
  expect_walk_matches_branch_and_bound(Kind::kWeighted);
}

TEST(GrayWalkOracle, BranchAndBoundFindsTheWorstCaseBlendOptimum) {
  expect_walk_matches_branch_and_bound(Kind::kWorstCase);
}

}  // namespace
}  // namespace xlp::core
