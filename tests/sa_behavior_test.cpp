// Behavioral tests of the annealing machinery itself: acceptance
// statistics across the cooling schedule, the naive generator's waste as a
// function of the limit, branch-and-bound search effort, and the D&C
// threshold option.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/branch_bound.hpp"
#include "core/dnc.hpp"
#include "core/naive_sa.hpp"
#include "core/sa.hpp"
#include "obs/timeseries.hpp"
#include "util/check.hpp"

namespace xlp::core {
namespace {

route::HopWeights paper_weights() { return route::HopWeights{}; }

TEST(SaBehavior, HotAnnealerAcceptsMostMoves) {
  // With T far above any latency delta, nearly every move is accepted.
  const RowObjective obj(8, paper_weights());
  SaParams params;
  params.initial_temperature = 1e6;
  params.total_moves = 2000;
  params.moves_per_cool = 2000;  // effectively no cooling
  Rng rng(1);
  const SaResult result = anneal_connection_matrix(
      topo::ConnectionMatrix(8, 4), obj, params, rng);
  EXPECT_GT(static_cast<double>(result.accepted) / result.moves, 0.95);
}

TEST(SaBehavior, ColdAnnealerOnlyAcceptsImprovements) {
  // With T near zero, exp(-d/T) underflows for any worsening move: the
  // annealer degenerates to a stochastic hill climber.
  const RowObjective obj(8, paper_weights());
  SaParams params;
  params.initial_temperature = 1e-9;
  params.total_moves = 2000;
  params.moves_per_cool = 2000;
  Rng rng(2);
  const SaResult result = anneal_connection_matrix(
      topo::ConnectionMatrix(8, 4), obj, params, rng);
  EXPECT_EQ(result.accepted, result.improved);
}

TEST(SaBehavior, AcceptanceRateFallsAsTheScheduleCools) {
  // Run two annealers from the same state: one sampled at the start of the
  // schedule, one configured to start at the final temperature. Acceptance
  // at the cold end must be lower.
  const RowObjective obj(16, paper_weights());
  Rng rng(3);
  const auto initial = topo::ConnectionMatrix::random(16, 4, rng, 0.5);

  SaParams hot;
  hot.initial_temperature = 10.0;
  hot.total_moves = 1500;
  hot.moves_per_cool = 1500;
  Rng r1(4);
  const SaResult hot_result =
      anneal_connection_matrix(initial, obj, hot, r1);

  SaParams cold = hot;
  cold.initial_temperature = 10.0 / 1024.0;  // after ten cooldowns
  Rng r2(4);
  const SaResult cold_result =
      anneal_connection_matrix(initial, obj, cold, r2);

  EXPECT_GT(static_cast<double>(hot_result.accepted) / hot_result.moves,
            static_cast<double>(cold_result.accepted) / cold_result.moves);
}

TEST(SaBehavior, SeriesRecordsEveryCoolingStep) {
  const RowObjective obj(8, paper_weights());
  SaParams params;
  params.initial_temperature = 10.0;
  params.total_moves = 2000;
  params.moves_per_cool = 250;
  params.cool_scale = 2.0;
  obs::SeriesRecorder series;
  params.series = &series;
  Rng rng(7);
  const SaResult result = anneal_connection_matrix(
      topo::ConnectionMatrix(8, 4), obj, params, rng);

  // One sample per cooling step, at the move count that closes its window.
  const auto objective = series.sampled("sa.objective");
  const auto best = series.sampled("sa.best");
  const auto temperature = series.sampled("sa.temperature");
  const auto acceptance = series.sampled("sa.acceptance");
  const auto steps =
      static_cast<std::size_t>(params.total_moves / params.moves_per_cool);
  ASSERT_EQ(objective.size(), steps);
  ASSERT_EQ(best.size(), steps);
  ASSERT_EQ(temperature.size(), steps);
  ASSERT_EQ(acceptance.size(), steps);
  double accepted_sum = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double moves_done =
        static_cast<double>((i + 1) * params.moves_per_cool);
    for (const auto* s : {&objective, &best, &temperature, &acceptance})
      EXPECT_EQ((*s)[i].x, moves_done);
    EXPECT_LE(best[i].y, objective[i].y + 1e-12);
    accepted_sum += acceptance[i].y * params.moves_per_cool;
    if (i > 0)
      EXPECT_LT(temperature[i].y, temperature[i - 1].y)
          << "temperature must be strictly decreasing";
  }
  EXPECT_NEAR(accepted_sum, static_cast<double>(result.accepted), 1e-6);
  EXPECT_DOUBLE_EQ(temperature.front().y, params.initial_temperature);
  EXPECT_DOUBLE_EQ(best.back().y, result.best_value);
}

TEST(SaBehavior, ResultExposesAcceptanceRateAndFinalTemperature) {
  const RowObjective obj(8, paper_weights());
  SaParams params;
  params.initial_temperature = 10.0;
  params.total_moves = 2000;
  params.moves_per_cool = 250;
  params.cool_scale = 2.0;
  Rng rng(8);
  const SaResult result = anneal_connection_matrix(
      topo::ConnectionMatrix(8, 4), obj, params, rng);
  EXPECT_DOUBLE_EQ(result.acceptance_rate,
                   static_cast<double>(result.accepted) / result.moves);
  // Eight cooling steps: T0 / 2^8.
  EXPECT_DOUBLE_EQ(result.final_temperature, 10.0 / 256.0);

  // A degenerate matrix (no flippable bits) never cools.
  Rng rng2(9);
  const SaResult degenerate = anneal_connection_matrix(
      topo::ConnectionMatrix(8, 1), obj, params, rng2);
  EXPECT_EQ(degenerate.moves, 0);
  EXPECT_DOUBLE_EQ(degenerate.acceptance_rate, 0.0);
  EXPECT_DOUBLE_EQ(degenerate.final_temperature,
                   params.initial_temperature);
}

TEST(SaBehavior, MovesEqualTheConfiguredBudget) {
  const RowObjective obj(8, paper_weights());
  Rng rng(5);
  const SaResult result = anneal_connection_matrix(
      topo::ConnectionMatrix(8, 4), obj, SaParams{}.with_moves(777), rng);
  EXPECT_EQ(result.moves, 777);
}

TEST(SaBehavior, WithMovesKeepsTheCoolingStepsPastLongOverflow) {
  // The default schedule cools every 1000 of 10000 moves; any budget keeps
  // those 10 steps. moves * moves_per_cool passes 2^63 from ~9.2e15 moves
  // (which requests accept); the period must still be a tenth of the
  // budget, not collapse to one move (UBSan flags the old overflow).
  const SaParams base;
  EXPECT_EQ(base.with_moves(20000).moves_per_cool, 2000);
  EXPECT_EQ(base.with_moves(5).moves_per_cool, 1);
  EXPECT_EQ(base.with_moves(0).moves_per_cool, 1);
  EXPECT_EQ(base.with_moves(10'000'000'000'000'000).moves_per_cool,
            1'000'000'000'000'000);
  const long most = std::numeric_limits<long>::max();
  EXPECT_EQ(base.with_moves(most).moves_per_cool, most / 10);
  SaParams every_move = base;
  every_move.total_moves = 1;
  every_move.moves_per_cool = 1000;
  EXPECT_EQ(every_move.with_moves(most).moves_per_cool, most)
      << "a period past a long clamps to the largest one";
}

TEST(NaiveSaBehavior, WasteGrowsAsTheLimitTightens) {
  // The tighter the cut limit, the more naive candidates are infeasible —
  // the quantitative version of Section 4.4.2's complaint.
  const RowObjective obj(8, paper_weights());
  const SaParams params = SaParams{}.with_moves(4000);
  double waste[2];
  int i = 0;
  for (const int limit : {8, 2}) {
    Rng rng(6);
    const NaiveSaResult result = anneal_naive_links(
        topo::RowTopology(8), obj, limit, params, rng);
    waste[i++] = static_cast<double>(result.invalid_moves) /
                 params.total_moves;
  }
  EXPECT_GT(waste[1], waste[0]);
}

TEST(BranchBoundBehavior, EffortGrowsWithTheLimit) {
  // More cross-section budget means a larger feasible space to enumerate.
  const RowObjective obj(8, paper_weights());
  long nodes_prev = 0;
  for (const int limit : {1, 2, 3, 4}) {
    BranchAndBound bb(obj, limit);
    const long nodes = bb.solve().nodes_explored;
    EXPECT_GE(nodes, nodes_prev) << "C=" << limit;
    nodes_prev = nodes;
  }
}

TEST(BranchBoundBehavior, OptimumImprovesWeaklyWithTheLimit) {
  const RowObjective obj(8, paper_weights());
  double prev = 1e9;
  for (const int limit : {1, 2, 3, 4}) {
    BranchAndBound bb(obj, limit);
    const double value = bb.solve().value;
    EXPECT_LE(value, prev + 1e-12) << "C=" << limit;
    prev = value;
  }
}

TEST(DncBehavior, LargerExactThresholdCanOnlyHelp) {
  // Solving bigger leaves exactly gives a weakly better initial solution.
  const RowObjective obj(16, paper_weights());
  DncOptions small;
  small.bb_threshold = 2;
  DncOptions big;
  big.bb_threshold = 8;
  const DncResult coarse = dnc_initial_solution(obj, 4, small);
  const DncResult fine = dnc_initial_solution(obj, 4, big);
  EXPECT_LE(fine.value, coarse.value + 1e-9);
}

TEST(DncBehavior, EvaluationCostGrowsWithTheThreshold) {
  RowObjective obj(16, paper_weights());
  DncOptions small;
  small.bb_threshold = 4;
  (void)dnc_initial_solution(obj, 4, small);
  const long cheap = obj.evaluations();
  obj.reset_evaluations();
  DncOptions big;
  big.bb_threshold = 8;
  (void)dnc_initial_solution(obj, 4, big);
  EXPECT_GT(obj.evaluations(), cheap);
}

}  // namespace
}  // namespace xlp::core
