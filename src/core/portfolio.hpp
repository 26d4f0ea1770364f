#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/drivers.hpp"
#include "runctl/checkpoint.hpp"
#include "runctl/control.hpp"

namespace xlp::core {

/// Parallel portfolio annealing: run several independent D&C_SA (or
/// OnlySA) chains on a util::ThreadPool with decorrelated seeds and keep
/// the best placement. Simulated annealing parallelizes embarrassingly
/// this way, and a portfolio also reduces seed variance — the multi-seed
/// averaging the evaluation section does by hand, executed concurrently.
///
/// Determinism: the result depends only on (seed, chains, parameters),
/// never on thread count or scheduling — each chain derives its RNG from
/// the seed and its chain index, ties between equal-valued chains break
/// toward the lower chain index, and chain metrics/checkpoints are merged
/// by chain index after the pool joins (see docs/parallelism.md).
struct PortfolioOptions {
  int chains = 4;          // independent chains (work items, not threads)
  /// Pool workers running the chains. 0 = util::default_thread_count()
  /// (the --threads flag / XLP_THREADS / hardware); always additionally
  /// capped by `chains`. The thread count never changes the result —
  /// `threads = 1` is bit-identical to `threads = chains`.
  int threads = 0;
  /// Per-chain schedule and hooks; `sa.control` stops every chain (each
  /// polls a private copy, see solve_row). `sa.series`, when set, receives
  /// every chain's cooling trajectory: each chain records into a private
  /// recorder under a "chainK." prefix, merged into it in chain index order
  /// after the pool joins, so the merged document is identical for any
  /// thread count. `sa.checkpoint_sink` is replaced by the portfolio's
  /// own; `sa.checkpoint_every_moves` is its cadence.
  SaParams sa;
  DncOptions dnc;
  Solver solver = Solver::kDcsa;

  /// When non-empty, chain 0 periodically persists a whole-portfolio
  /// checkpoint to this path (atomically), and a final one is written
  /// after the chains join.
  std::string checkpoint_path;

  /// Resume from a saved portfolio state, which supplies chains, solver and
  /// the sa schedule (as a resumed solve_row does). Chain entries that are
  /// nullopt (the chain never reached its annealer) restart from scratch,
  /// which is deterministic because chain RNGs are forked from the seed.
  /// Not owned; may be null.
  const runctl::PortfolioCheckpoint* resume = nullptr;
};

struct PortfolioResult {
  PlacementResult best;
  /// Final value of every chain, by chain index. +inf marks a chain a
  /// cancellation skipped before it could start (only possible when the
  /// run was stopped early).
  std::vector<double> chain_values;
  long total_evaluations = 0;
  double seconds = 0.0;  // wall clock for the whole portfolio
  /// Worst chain outcome: interrupted > deadline > completed. The best
  /// placement is feasible either way.
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
  /// Engaged when the run stopped early (SA solvers only): the state
  /// `xlp run --resume` continues from.
  std::optional<runctl::PortfolioCheckpoint> checkpoint;
};

/// Solves P̄(row_size, link_limit) with a portfolio of chains. The
/// objective is described by its ingredients (size, hop weights, optional
/// pair weights) because RowObjective instances are not safe to share
/// across threads; each chain builds its own.
[[nodiscard]] PortfolioResult solve_portfolio(
    int row_size, route::HopWeights hop_weights,
    const std::optional<std::vector<double>>& pair_weights, int link_limit,
    const PortfolioOptions& options, std::uint64_t seed);

}  // namespace xlp::core
