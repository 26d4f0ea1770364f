#include "core/portfolio.hpp"

#include <limits>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"

namespace xlp::core {

namespace {

runctl::RunStatus worse(runctl::RunStatus a, runctl::RunStatus b) noexcept {
  if (a == runctl::RunStatus::kInterrupted ||
      b == runctl::RunStatus::kInterrupted)
    return runctl::RunStatus::kInterrupted;
  if (a == runctl::RunStatus::kDeadline || b == runctl::RunStatus::kDeadline)
    return runctl::RunStatus::kDeadline;
  return runctl::RunStatus::kCompleted;
}

}  // namespace

PortfolioResult solve_portfolio(
    int row_size, route::HopWeights hop_weights,
    const std::optional<std::vector<double>>& pair_weights, int link_limit,
    const PortfolioOptions& requested, std::uint64_t seed) {
  // A resumed portfolio is described by its checkpoint.
  PortfolioOptions options = requested;
  if (const runctl::PortfolioCheckpoint* pc = requested.resume) {
    XLP_REQUIRE(pc->n == row_size && pc->link_limit == link_limit,
                "portfolio checkpoint was taken for a different P(n, C)");
    XLP_REQUIRE(static_cast<int>(pc->chain_states.size()) == pc->chains,
                "portfolio checkpoint does not match its chain count");
    const std::optional<Solver> solver = parse_solver(pc->solver);
    XLP_REQUIRE(solver.has_value(),
                "portfolio checkpoint names an unknown solver");
    options.chains = pc->chains;
    options.solver = *solver;
    options.sa.set_schedule(pc->schedule);
  }
  XLP_REQUIRE(options.chains >= 1, "portfolio needs at least one chain");

  Stopwatch timer;
  std::vector<PlacementResult> results(
      static_cast<std::size_t>(options.chains));
  // Which chains actually ran; a cancellation can skip queued chains
  // entirely (their checkpoint entry then stays nullopt and resume
  // restarts them from scratch, deterministically).
  std::vector<std::uint8_t> ran(static_cast<std::size_t>(options.chains), 0);

  // Latest per-chain annealer snapshot, fed by the checkpoint sinks. Only
  // annealing solvers produce snapshots; otherwise all entries stay nullopt.
  std::mutex ckpt_mutex;
  std::vector<std::optional<runctl::SaCheckpoint>> latest(
      static_cast<std::size_t>(options.chains));

  // Per-chain private recorders (SeriesRecorder is not thread-safe);
  // merged into options.sa.series in chain-index order after the pool joins.
  std::vector<obs::SeriesRecorder> chain_series;
  if (options.sa.series != nullptr)
    chain_series.assign(static_cast<std::size_t>(options.chains),
                        obs::SeriesRecorder(options.sa.series->capacity()));

  const auto snapshot_portfolio = [&]() {
    // Caller holds ckpt_mutex (or all workers have joined).
    runctl::PortfolioCheckpoint pc;
    pc.n = row_size;
    pc.link_limit = link_limit;
    pc.chains = options.chains;
    pc.seed = seed;
    pc.solver = to_string(options.solver);
    pc.schedule = options.sa.schedule();
    pc.chain_states = latest;
    return pc;
  };

  const auto run_chain = [&](long chain) {
    // Per-chain objective (evaluation counters are not shareable across
    // threads) and a decorrelated per-chain stream: the result is a
    // function of (seed, chain index) alone, never of which pool worker
    // picked the chain up or how many workers there are.
    const RowObjective objective =
        pair_weights ? RowObjective(row_size, hop_weights, *pair_weights)
                     : RowObjective(row_size, hop_weights);
    Rng base(seed);
    Rng rng = base.fork(static_cast<std::uint64_t>(chain));

    SaParams sa = options.sa;
    if (options.sa.series != nullptr) {
      sa.series = &chain_series[static_cast<std::size_t>(chain)];
      sa.series_prefix = "chain" + std::to_string(chain) + ".";
    }
    sa.checkpoint_sink = [&, chain](const runctl::SaCheckpoint& ck) {
      const std::lock_guard<std::mutex> lock(ckpt_mutex);
      latest[static_cast<std::size_t>(chain)] = ck;
      // Chain 0 is the designated writer so the file cadence does not
      // multiply with the chain count. Periodic writes are best-effort:
      // a full disk must not kill the search.
      if (chain == 0 && !options.checkpoint_path.empty()) {
        try {
          save_portfolio_checkpoint(options.checkpoint_path,
                                    snapshot_portfolio());
        } catch (const Error&) {
        }
      }
    };

    const std::optional<runctl::SaCheckpoint>* state =
        options.resume != nullptr
            ? &options.resume->chain_states[static_cast<std::size_t>(chain)]
            : nullptr;
    results[static_cast<std::size_t>(chain)] =
        solve_row(objective, link_limit, options.solver, sa, options.dnc, rng,
                  state != nullptr && *state ? &**state : nullptr);
    ran[static_cast<std::size_t>(chain)] = 1;
  };

  // The pool is scoped to this call: workers are joined before we merge,
  // so the (thread-local) profiler trees they grew are stable and the
  // merge below never races a live chain.
  bool all_ran;
  int workers;
  {
    util::ThreadPool pool(options.threads, options.chains);
    workers = pool.size();
    all_ran = pool.parallel_for(options.chains, run_chain, options.sa.control);
  }
  if (!ran[0] && options.chains >= 1) {
    // A stop that arrived before any chain was dispatched must still
    // produce a usable (best-effort) result and checkpoint: run chain 0
    // inline — its own control poll makes it return almost immediately.
    run_chain(0);
  }

  if (options.sa.series != nullptr) {
    // Chain-index order, after the join: the merged document depends only
    // on (seed, chains, parameters), never on worker scheduling.
    for (const obs::SeriesRecorder& rec : chain_series)
      options.sa.series->adopt(rec);
  }

  PortfolioResult portfolio;
  portfolio.seconds = timer.seconds();
  portfolio.chain_values.reserve(results.size());
  std::size_t best = results.size();
  for (std::size_t chain = 0; chain < results.size(); ++chain) {
    if (!ran[chain]) {
      // Skipped by a cancellation: infinity keeps the slot out of the
      // best-of selection while chain_values stays index-aligned.
      portfolio.chain_values.push_back(
          std::numeric_limits<double>::infinity());
      continue;
    }
    portfolio.chain_values.push_back(results[chain].value);
    portfolio.total_evaluations += results[chain].evaluations;
    portfolio.status = worse(portfolio.status, results[chain].status);
    if (best == results.size() ||
        results[chain].value < results[best].value)
      best = chain;
  }
  XLP_CHECK(best < results.size(), "no portfolio chain produced a result");
  portfolio.best = std::move(results[best]);
  portfolio.best.method += "-portfolio";
  if (!all_ran) {
    // Chains were skipped: the run as a whole did not complete even if
    // every chain that did start finished its schedule.
    runctl::CancelToken* token =
        options.sa.control != nullptr ? options.sa.control->token() : nullptr;
    portfolio.status = worse(portfolio.status,
                             token != nullptr && token->cancelled()
                                 ? token->reason()
                                 : runctl::RunStatus::kDeadline);
  }

  const bool is_sa_solver = is_annealed(options.solver);
  if (is_sa_solver &&
      portfolio.status != runctl::RunStatus::kCompleted) {
    portfolio.checkpoint = snapshot_portfolio();
  }
  if (is_sa_solver && !options.checkpoint_path.empty()) {
    // Final write (complete or not) so the file on disk always reflects
    // the joined state; this one is allowed to throw.
    save_portfolio_checkpoint(options.checkpoint_path, snapshot_portfolio());
  }

  auto& metrics = obs::MetricsRegistry::global();
  metrics.add("core.portfolio.runs");
  metrics.add("core.portfolio.chains", options.chains);
  metrics.add("core.portfolio.threads", workers);
  return portfolio;
}

}  // namespace xlp::core
