// Exactness and determinism contract of the incremental evaluator
// (DeltaRowObjective): every delta score must be bit-identical to the full
// RowObjective::evaluate on the same placement, so an anneal driven by it
// accepts the same moves, emits byte-identical checkpoints and returns the
// same SaResult. `ctest -L delta` runs exactly this suite; the asan-ubsan
// CI lane re-runs it with XLP_CHECK_DELTA=1 so every propose also
// cross-checks itself against the full evaluator at runtime.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/delta_objective.hpp"
#include "core/dnc.hpp"
#include "core/objective.hpp"
#include "core/portfolio.hpp"
#include "core/sa.hpp"
#include "route/directional_paths.hpp"
#include "topo/connection_matrix.hpp"
#include "topo/row_topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xlp::core {
namespace {

route::HopWeights paper_weights() { return route::HopWeights{}; }

std::vector<double> random_pair_weights(int n, Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j) w[static_cast<std::size_t>(i) * n + j] = rng.uniform01();
  return w;
}

// Drives `delta` through a random flip sequence with random accept /
// reject decisions and asserts, after every propose, that the delta score
// equals the full evaluation of the mutated placement exactly (no
// tolerance: the contract is bit-identity).
void run_flip_property(const RowObjective& objective, int n, int limit,
                       std::uint64_t seed, int moves, double density = 0.5) {
  Rng rng(seed);
  topo::ConnectionMatrix reference =
      topo::ConnectionMatrix::random(n, limit, rng, density);
  DeltaRowObjective delta(objective, reference);
  for (int m = 0; m < moves; ++m) {
    const int bit = static_cast<int>(rng.uniform_below(
        static_cast<std::uint64_t>(reference.bit_count())));
    const double incremental = delta.propose_flip(bit);
    reference.flip_flat(bit);
    const double full = objective.evaluate(reference.decode());
    ASSERT_EQ(incremental, full)
        << "move " << m << " bit " << bit << " n=" << n << " C=" << limit;
    if (rng.uniform01() < 0.5) {
      delta.commit();
    } else {
      delta.revert();
      reference.flip_flat(bit);  // undo on the reference too
    }
  }
  // The cache must still be coherent after the mixed commit/revert walk:
  // one more accepted move scored from the final state.
  const int bit = 0;
  const double incremental = delta.propose_flip(bit);
  reference.flip_flat(bit);
  ASSERT_EQ(incremental, objective.evaluate(reference.decode()));
  delta.commit();
}

TEST(DeltaObjective, UniformFlipsMatchFullEvaluationExactly) {
  for (const int n : {4, 8, 13, 16}) {
    for (const int limit : {2, 3, 4}) {
      const RowObjective obj(n, paper_weights());
      ASSERT_TRUE(obj.delta_supported());
      run_flip_property(obj, n, limit, 100 + n + limit, 200);
    }
  }
}

TEST(DeltaObjective, WeightedFlipsMatchFullEvaluationExactly) {
  for (const int n : {8, 16}) {
    Rng wrng(11u + static_cast<std::uint64_t>(n));
    RowObjective obj(n, paper_weights(), random_pair_weights(n, wrng));
    run_flip_property(obj, n, 4, 200 + n, 200);
  }
}

TEST(DeltaObjective, WorstCaseBlendFlipsMatchFullEvaluationExactly) {
  for (const double w : {0.25, 1.0}) {
    RowObjective obj(16, paper_weights());
    obj.set_worst_case_weight(w);
    ASSERT_TRUE(obj.delta_supported());
    run_flip_property(obj, 16, 4, 321, 200);
  }
}

TEST(DeltaObjective, WeightedWorstCaseBlendMatchesFullEvaluationExactly) {
  Rng wrng(77);
  RowObjective obj(12, paper_weights(), random_pair_weights(12, wrng));
  obj.set_worst_case_weight(0.5);
  run_flip_property(obj, 12, 3, 555, 200);
}

// Reflection, a metamorphic relation: mapping every link (i, j) to
// (n-1-j, n-1-i) mirrors the row, so hops'(n-1-i, n-1-j) == hops(i, j).
// Under the mirrored demand w'(i, j) = w(n-1-i, n-1-j) every objective's
// int64 sums are the same, so the mirrored placement keeps its score bit
// for bit: uniform, weighted and worst-case blends alike. Mirroring every
// layer of a connection matrix mirrors its decode, so a flip walk and its
// mirror image must score alike in both evaluators.
TEST(DeltaObjective, ReflectedRowsScoreTheSame) {
  const auto reflect = [](const topo::RowTopology& row) {
    const int n = row.size();
    std::vector<topo::RowLink> links;
    for (const topo::RowLink& link : row.express_links())
      links.push_back({n - 1 - link.hi, n - 1 - link.lo});
    return topo::RowTopology(n, std::move(links));
  };
  const auto mirror_weights = [](const std::vector<double>& w, int n) {
    std::vector<double> out(w.size());
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        out[static_cast<std::size_t>(i) * n + j] =
            w[static_cast<std::size_t>(n - 1 - i) * n + (n - 1 - j)];
    return out;
  };
  for (const int n : {5, 8, 13, 16}) {
    for (const int limit : {2, 4}) {
      for (const bool weighted : {false, true}) {
        for (const double worst : {0.0, 0.5}) {
          Rng rng(900u + static_cast<std::uint64_t>(n * limit));
          const std::vector<double> w = random_pair_weights(n, rng);
          RowObjective obj = weighted ? RowObjective(n, paper_weights(), w)
                                      : RowObjective(n, paper_weights());
          RowObjective twin =
              weighted ? RowObjective(n, paper_weights(), mirror_weights(w, n))
                       : RowObjective(n, paper_weights());
          obj.set_worst_case_weight(worst);
          twin.set_worst_case_weight(worst);
          topo::ConnectionMatrix matrix =
              topo::ConnectionMatrix::random(n, limit, rng, 0.5);
          const int interior = matrix.interior();
          // The flat bit of the same layer at the mirrored interior router.
          const auto mirror_bit = [interior](int bit) {
            return bit - bit % interior + (interior - 1 - bit % interior);
          };
          topo::ConnectionMatrix mirrored(n, limit);
          for (int bit = 0; bit < matrix.bit_count(); ++bit)
            if (matrix.bit_flat(bit)) mirrored.flip_flat(mirror_bit(bit));
          DeltaRowObjective delta(obj, matrix);
          DeltaRowObjective mirrored_delta(twin, mirrored);
          for (int m = 0; m < 60; ++m) {
            const int bit = static_cast<int>(rng.uniform_below(
                static_cast<std::uint64_t>(matrix.bit_count())));
            const double score = delta.propose_flip(bit);
            const double mirrored_score =
                mirrored_delta.propose_flip(mirror_bit(bit));
            delta.commit();
            mirrored_delta.commit();
            matrix.flip_flat(bit);
            mirrored.flip_flat(mirror_bit(bit));

            const topo::RowTopology row = matrix.decode();
            const topo::RowTopology reflected = reflect(row);
            ASSERT_EQ(mirrored.decode(), reflected) << row.to_string();
            const route::DirectionalShortestPaths paths(row, paper_weights());
            const route::DirectionalShortestPaths mirror(reflected,
                                                         paper_weights());
            for (int i = 0; i < n; ++i)
              for (int j = 0; j < n; ++j)
                ASSERT_EQ(mirror.hops(n - 1 - i, n - 1 - j), paths.hops(i, j))
                    << row.to_string() << " pair " << i << "->" << j;
            const double full = obj.evaluate(row);
            ASSERT_EQ(twin.evaluate(reflected), full) << row.to_string();
            ASSERT_EQ(score, full) << row.to_string();
            ASSERT_EQ(mirrored_score, full) << row.to_string();
          }
        }
      }
    }
  }
}

TEST(DeltaObjective, NonIntegerHopWeightsStayIncrementalAndExact) {
  // Both evaluators compute (Tl·SD + Tr·SH) / SW from the same int64 sums,
  // so fractional cycle weights, whose per-pair costs are inexact doubles,
  // still score bit for bit alike, uniform and weighted.
  for (const int n : {8, 16}) {
    Rng wrng(47u + static_cast<std::uint64_t>(n));
    const route::HopWeights fractional{2.75, 1.1};
    const RowObjective uniform(n, fractional);
    const RowObjective weighted(n, fractional, random_pair_weights(n, wrng));
    for (const RowObjective* obj : {&uniform, &weighted}) {
      ASSERT_TRUE(obj->delta_supported());
      EXPECT_TRUE(
          DeltaRowObjective(*obj, topo::ConnectionMatrix(n, 4)).incremental());
      run_flip_property(*obj, n, 4, 400 + n, 200);
    }
  }
}

TEST(DeltaObjective, LargeHopWeightsStayIncrementalAndExact) {
  // At n = 64 a path of 63 hops can cost up to 63 * 64e9 cycles, and n^2
  // such costs pass 2^53, where doubles stop being exact integers; the
  // hop and distance sums stay exact int64s, so the scores still agree.
  const int n = 64;
  Rng wrng(64);
  const route::HopWeights large{1e9, 1e9};
  const RowObjective uniform(n, large);
  const RowObjective weighted(n, large, random_pair_weights(n, wrng));
  for (const RowObjective* obj : {&uniform, &weighted}) {
    ASSERT_TRUE(obj->delta_supported());
    EXPECT_TRUE(
        DeltaRowObjective(*obj, topo::ConnectionMatrix(n, 4)).incremental());
    run_flip_property(*obj, n, 4, 64, 200);
  }
}

// Rows far longer than the small-n tests above: one flip at n = 256 can
// change ~n^2/4 pairs across ~n/2 hop columns. C = 2 at density 0.9 keeps one
// layer of long runs, so most flips split or fuse a long link; C = 8 packs
// many short ones. Every propose is checked against the full evaluator.
constexpr int kLargeRows[] = {64, 128, 256};

int large_row_moves(int n) { return 16000 / n; }  // 250, 125, 62

TEST(DeltaObjective, LargeRowUniformFlipsMatchFullEvaluationExactly) {
  for (const int n : kLargeRows) {
    const RowObjective obj(n, paper_weights());
    ASSERT_TRUE(obj.delta_supported());
    run_flip_property(obj, n, 2, 600 + n, large_row_moves(n), 0.9);
    run_flip_property(obj, n, 8, 700 + n, large_row_moves(n));
  }
}

TEST(DeltaObjective, LargeRowWeightedFlipsMatchFullEvaluationExactly) {
  for (const int n : kLargeRows) {
    Rng wrng(31u + static_cast<std::uint64_t>(n));
    const RowObjective obj(n, paper_weights(), random_pair_weights(n, wrng));
    ASSERT_TRUE(obj.delta_supported());
    run_flip_property(obj, n, 2, 800 + n, large_row_moves(n), 0.9);
    run_flip_property(obj, n, 8, 900 + n, large_row_moves(n));
  }
}

TEST(DeltaObjective, LargeRowWorstCaseBlendFlipsMatchFullEvaluationExactly) {
  for (const int n : kLargeRows) {
    RowObjective obj(n, paper_weights());
    obj.set_worst_case_weight(0.25);
    ASSERT_TRUE(obj.delta_supported());
    run_flip_property(obj, n, 2, 1000 + n, large_row_moves(n), 0.9);
    run_flip_property(obj, n, 8, 1100 + n, large_row_moves(n));
  }
}

// Topology mode over random cross links: each add is scored against the
// full evaluator and kept or dropped at random, so later candidates land on
// columns earlier commits rewrote.
void run_add_property(const RowObjective& objective, int n,
                      std::uint64_t seed, int moves) {
  Rng rng(seed);
  topo::RowTopology reference(n);
  DeltaRowObjective delta(objective, reference);
  for (int m = 0; m < moves; ++m) {
    const int lo = static_cast<int>(
        rng.uniform_below(static_cast<std::uint64_t>(n - 2)));
    const int hi = lo + 2 +
                   static_cast<int>(rng.uniform_below(
                       static_cast<std::uint64_t>(n - lo - 2)));
    const double incremental = delta.propose_add({lo, hi});
    topo::RowTopology candidate = reference;
    candidate.add_express({lo, hi});
    ASSERT_EQ(incremental, objective.evaluate(candidate))
        << "move " << m << " n=" << n << " link (" << lo << ", " << hi
        << ")";
    if (rng.uniform01() < 0.3) {
      delta.commit();
      reference = std::move(candidate);
    } else {
      delta.revert();
    }
  }
}

// The byte table's edges: rows shorter and just longer than one kLanes
// column (3, 17, 33), and 255 / 256, where the plain row's hop count
// reaches n - 1 = 255, the largest a byte holds. Walks from the plain row
// (density 0) keep long hop counts in play. Every objective the evaluator
// reduces: uniform, weighted, and the worst-case blend.
TEST(DeltaObjective, KernelEdgeSizesMatchFullEvaluationExactly) {
  for (const int n : {3, 17, 33, 255, 256}) {
    const int moves = n < 255 ? 300 : 20;
    Rng wrng(41u + static_cast<std::uint64_t>(n));
    RowObjective uniform(n, paper_weights());
    RowObjective weighted(n, paper_weights(), random_pair_weights(n, wrng));
    RowObjective worst(n, paper_weights());
    worst.set_worst_case_weight(0.25);
    for (const RowObjective* obj : {&uniform, &weighted, &worst}) {
      ASSERT_TRUE(obj->delta_supported()) << "n=" << n;
      ASSERT_TRUE(DeltaRowObjective(*obj, topo::RowTopology(n)).incremental());
      SCOPED_TRACE("n=" + std::to_string(n));
      // The plain row, where hops(0, n - 1) = n - 1: set one connection
      // point, then score clearing it again.
      DeltaRowObjective plain(*obj, topo::ConnectionMatrix(n, 2));
      (void)plain.propose_flip(0);
      plain.commit();
      ASSERT_EQ(plain.propose_flip(0), obj->evaluate(topo::RowTopology(n)));
      plain.commit();
      run_flip_property(*obj, n, 2, 1300 + n, moves, 0.0);
      run_flip_property(*obj, n, 8, 1400 + n, moves, 0.5);
      run_add_property(*obj, n, 1500 + n, moves);
    }
  }
}

TEST(DeltaObjective, RowsPastTheByteTableFallBackButStayExact) {
  // n = 257 has hop counts up to 256, past a byte: the objective refuses
  // the incremental path, and the fallback still scores exactly.
  const int n = 257;
  const RowObjective obj(n, paper_weights());
  ASSERT_FALSE(obj.delta_supported());
  const DeltaRowObjective delta(obj, topo::ConnectionMatrix(n, 4));
  EXPECT_FALSE(delta.incremental());
  run_flip_property(obj, n, 4, 257, 20, 0.0);
  run_add_property(obj, n, 258, 20);
}

TEST(DeltaObjective, WorkCountsColumnsAndRestoredBytes) {
  // Adding (0, 2) to the plain 8-router row rewrites columns 2..7 (every
  // later column's source 0 gains a shortcut); revert copies those six
  // 16-byte columns back. A duplicate link routes nothing differently.
  const RowObjective obj(8, paper_weights());
  DeltaRowObjective delta(obj, topo::RowTopology(8));
  EXPECT_EQ(delta.work().columns, 0) << "construction counts nothing";
  (void)delta.propose_add({0, 2});
  delta.revert();
  EXPECT_EQ(delta.work().columns, 6);
  EXPECT_EQ(delta.work().restored_bytes, 6 * DeltaRowObjective::kLanes);
  (void)delta.propose_add({0, 2});
  delta.commit();
  (void)delta.propose_add({0, 2});
  delta.revert();
  EXPECT_EQ(delta.work().columns, 12);
  EXPECT_EQ(delta.work().restored_bytes, 6 * DeltaRowObjective::kLanes);
}

TEST(DeltaObjective, LargeRowNestedAddsMatchFullEvaluationExactly) {
  // Topology mode with commits: concentric links (c - d, c + d) around the
  // row's middle, each kept or dropped at random, so later candidates nest
  // around and inside links the cache already holds.
  for (const int n : kLargeRows) {
    const RowObjective obj(n, paper_weights());
    topo::RowTopology reference(n, {{0, n - 1}, {n / 4, n / 2}});
    DeltaRowObjective delta(obj, reference);
    ASSERT_TRUE(delta.incremental());
    Rng rng(1200u + static_cast<std::uint64_t>(n));
    const int c = n / 2;
    for (int d = 1; c + d < n && c - d >= 0; d += 1 + d / 8) {
      const topo::RowLink link{c - d, c + d};
      const double incremental = delta.propose_add(link);
      topo::RowTopology candidate = reference;
      candidate.add_express(link);
      ASSERT_EQ(incremental, obj.evaluate(candidate))
          << "n=" << n << " link (" << link.lo << ", " << link.hi << ")";
      if (rng.uniform01() < 0.5) {
        delta.commit();
        reference = std::move(candidate);
      } else {
        delta.revert();
      }
    }
  }
}

TEST(DeltaObjective, TopologyModeAddMatchesFullEvaluationExactly) {
  // The D&C merge pattern: a fixed base placement, each candidate is base
  // plus one cross link, propose/revert per candidate.
  const int n = 12;
  const RowObjective obj(n, paper_weights());
  topo::RowTopology base(n, {{0, 3}, {6, 11}});
  DeltaRowObjective scan(obj, base);
  ASSERT_TRUE(scan.incremental());
  for (int i = 0; i < n / 2; ++i) {
    for (int j = n / 2; j < n; ++j) {
      if (j - i < 2) continue;
      const double incremental = scan.propose_add({i, j});
      topo::RowTopology candidate = base;
      candidate.add_express({i, j});
      ASSERT_EQ(incremental, obj.evaluate(candidate))
          << "link (" << i << ", " << j << ")";
      scan.revert();
    }
  }
  // Adding a duplicate of an existing link must also score exactly (the
  // multiset placement with the link twice).
  const double dup = scan.propose_add({0, 3});
  topo::RowTopology twice = base;
  twice.add_express({0, 3});
  ASSERT_EQ(dup, obj.evaluate(twice));
  scan.revert();
}

TEST(DeltaObjective, SecondaryBlendFallsBackButStaysExact) {
  RowObjective obj(10, paper_weights());
  obj.set_secondary(0.3, [](const topo::RowTopology& row) {
    return static_cast<double>(row.express_links().size());
  });
  ASSERT_FALSE(obj.delta_supported());
  topo::ConnectionMatrix state(10, 3);
  DeltaRowObjective delta(obj, state);
  EXPECT_FALSE(delta.incremental());
  Rng rng(9);
  for (int m = 0; m < 50; ++m) {
    const int bit = static_cast<int>(
        rng.uniform_below(static_cast<std::uint64_t>(state.bit_count())));
    const double incremental = delta.propose_flip(bit);
    state.flip_flat(bit);
    ASSERT_EQ(incremental, obj.evaluate(state.decode()));
    if (rng.uniform01() < 0.5) {
      delta.commit();
    } else {
      delta.revert();
      state.flip_flat(bit);
    }
  }
}

TEST(DeltaObjective, EveryProposeCountsExactlyOneEvaluation) {
  RowObjective obj(8, paper_weights());
  obj.reset_evaluations();
  topo::ConnectionMatrix state(8, 4);
  DeltaRowObjective delta(obj, state);
  EXPECT_EQ(obj.evaluations(), 0) << "construction must not count";
  (void)delta.propose_flip(0);
  delta.commit();
  (void)delta.propose_flip(1);
  delta.revert();
  (void)delta.propose_flip(0);
  delta.revert();
  EXPECT_EQ(obj.evaluations(), 3);
}

// The headline contract: an anneal driven by the incremental evaluator is
// byte-for-byte the run the full evaluator produces — same accepted moves,
// same counters, same best matrix, same checkpoint JSON.
TEST(DeltaObjective, AnnealTrajectoryIsBitIdenticalToFullEvaluation) {
  const int n = 16;
  const RowObjective obj(n, paper_weights());
  Rng seed_rng(3);
  const auto initial = topo::ConnectionMatrix::random(n, 4, seed_rng, 0.5);

  const auto run = [&](bool use_delta) {
    SaParams params;
    params.initial_temperature = 10.0;
    params.total_moves = 2000;
    params.moves_per_cool = 250;
    params.delta_eval = use_delta;
    params.method_label = "OnlySA";
    params.checkpoint_every_moves = 500;
    std::vector<std::string> checkpoints;
    params.checkpoint_sink = [&](const runctl::SaCheckpoint& ck) {
      checkpoints.push_back(ck.to_json().dump());
    };
    Rng rng(7);
    const SaResult result =
        anneal_connection_matrix(initial, obj, params, rng);
    return std::make_pair(result, checkpoints);
  };

  const auto [full, full_ckpts] = run(false);
  const auto [delta, delta_ckpts] = run(true);

  EXPECT_EQ(delta.best_value, full.best_value);
  EXPECT_EQ(delta.best_matrix, full.best_matrix);
  EXPECT_EQ(delta.moves, full.moves);
  EXPECT_EQ(delta.accepted, full.accepted);
  EXPECT_EQ(delta.improved, full.improved);
  EXPECT_EQ(delta.acceptance_rate, full.acceptance_rate);
  EXPECT_EQ(delta.final_temperature, full.final_temperature);
  ASSERT_EQ(delta_ckpts.size(), full_ckpts.size());
  for (std::size_t i = 0; i < full_ckpts.size(); ++i)
    EXPECT_EQ(delta_ckpts[i], full_ckpts[i]) << "checkpoint " << i;
}

TEST(DeltaObjective, ResumedDeltaRunMatchesUninterruptedFullRun) {
  // Stop a delta-driven run at a checkpoint, resume it (still delta), and
  // compare against one uninterrupted full-evaluation run: the checkpoint
  // format carries no trace of which evaluator produced it.
  const int n = 12;
  const RowObjective obj(n, paper_weights());
  Rng seed_rng(5);
  const auto initial = topo::ConnectionMatrix::random(n, 3, seed_rng, 0.5);

  SaParams base;
  base.initial_temperature = 10.0;
  base.total_moves = 1600;
  base.moves_per_cool = 200;
  base.method_label = "OnlySA";

  SaParams uninterrupted = base;
  uninterrupted.delta_eval = false;
  Rng r_full(21);
  const SaResult full =
      anneal_connection_matrix(initial, obj, uninterrupted, r_full);

  SaParams first = base;
  first.checkpoint_every_moves = 800;
  std::optional<runctl::SaCheckpoint> mid;
  first.checkpoint_sink = [&](const runctl::SaCheckpoint& ck) {
    if (!ck.complete && !mid.has_value()) mid = ck;  // the move-800 snapshot
  };
  Rng r_a(21);
  (void)anneal_connection_matrix(initial, obj, first, r_a);
  ASSERT_TRUE(mid.has_value());
  ASSERT_EQ(mid->next_move, 800);

  SaParams second_half = base;
  second_half.resume = &*mid;
  Rng r_b(999);  // overwritten by the checkpoint's RNG words
  const SaResult resumed =
      anneal_connection_matrix(initial, obj, second_half, r_b);

  EXPECT_EQ(resumed.best_value, full.best_value);
  EXPECT_EQ(resumed.best_matrix, full.best_matrix);
  EXPECT_EQ(resumed.accepted, full.accepted);
  EXPECT_EQ(resumed.improved, full.improved);
}

TEST(DeltaObjective, DncMergeSelectsTheSameLinkWithAndWithoutDelta) {
  for (const int n : {10, 16, 23}) {
    const RowObjective obj(n, paper_weights());
    DncOptions with_delta;
    with_delta.delta_eval = true;
    DncOptions without_delta;
    without_delta.delta_eval = false;
    const DncResult a = dnc_initial_solution(obj, 4, with_delta);
    const DncResult b = dnc_initial_solution(obj, 4, without_delta);
    EXPECT_EQ(a.value, b.value) << "n=" << n;
    EXPECT_EQ(a.placement.express_links(), b.placement.express_links())
        << "n=" << n;
  }
}

TEST(DeltaObjective, PortfolioIsByteIdenticalAcrossThreadCounts) {
  // Delta evaluation is on by default inside portfolio chains; the
  // cross-thread-count determinism contract must survive it.
  const auto run = [](int threads) {
    PortfolioOptions options;
    options.chains = 4;
    options.threads = threads;
    options.sa.total_moves = 800;
    options.sa.moves_per_cool = 100;
    return solve_portfolio(14, route::HopWeights{}, std::nullopt, 3, options,
                           42);
  };
  const PortfolioResult one = run(1);
  for (const int threads : {2, 4}) {
    const PortfolioResult many = run(threads);
    EXPECT_EQ(many.best.value, one.best.value) << threads << " threads";
    EXPECT_EQ(many.best.placement.express_links(),
              one.best.placement.express_links())
        << threads << " threads";
    ASSERT_EQ(many.chain_values.size(), one.chain_values.size());
    for (std::size_t i = 0; i < one.chain_values.size(); ++i)
      EXPECT_EQ(many.chain_values[i], one.chain_values[i])
          << threads << " threads, chain " << i;
  }
}

TEST(DeltaObjective, CrossCheckModeRunsCleanOnAgreement) {
  // XLP_CHECK_DELTA=1 makes every propose re-score with the full evaluator
  // and abort on divergence; on a correct implementation it is silent.
  ASSERT_EQ(setenv("XLP_CHECK_DELTA", "1", 1), 0);
  const RowObjective obj(10, paper_weights());
  SaParams params;
  params.total_moves = 300;
  params.moves_per_cool = 100;
  Rng seed_rng(13);
  const auto initial = topo::ConnectionMatrix::random(10, 3, seed_rng, 0.5);
  Rng rng(17);
  const SaResult checked =
      anneal_connection_matrix(initial, obj, params, rng);
  ASSERT_EQ(unsetenv("XLP_CHECK_DELTA"), 0);

  SaParams reference = params;
  reference.delta_eval = false;
  Rng rng2(17);
  const SaResult plain =
      anneal_connection_matrix(initial, obj, reference, rng2);
  EXPECT_EQ(checked.best_value, plain.best_value);
  EXPECT_EQ(checked.best_matrix, plain.best_matrix);
}

TEST(DeltaObjective, CrossCheckModeDoesNotDoubleCountEvaluations) {
  ASSERT_EQ(setenv("XLP_CHECK_DELTA", "1", 1), 0);
  RowObjective obj(8, paper_weights());
  obj.reset_evaluations();
  topo::ConnectionMatrix state(8, 4);
  DeltaRowObjective delta(obj, state);
  (void)delta.propose_flip(0);
  delta.commit();
  (void)delta.propose_flip(3);
  delta.revert();
  ASSERT_EQ(unsetenv("XLP_CHECK_DELTA"), 0);
  EXPECT_EQ(obj.evaluations(), 2);
}

TEST(DeltaObjective, ProposeWithoutResolutionIsRejected) {
  const RowObjective obj(8, paper_weights());
  topo::ConnectionMatrix state(8, 4);
  DeltaRowObjective delta(obj, state);
  (void)delta.propose_flip(0);
  EXPECT_THROW((void)delta.propose_flip(1), PreconditionError);
  delta.revert();
  EXPECT_THROW(delta.commit(), PreconditionError);
  EXPECT_THROW(delta.revert(), PreconditionError);
}

}  // namespace
}  // namespace xlp::core
