// The deterministic parallel execution layer: ThreadPool semantics
// (ordering, exceptions, cancellation), the thread-count resolution
// chain, the cross-thread-count determinism contract of portfolios,
// sweeps and fault campaigns, and the multi-writer safety of
// fsio::atomic_write_file. See docs/parallelism.md.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/c_sweep.hpp"
#include "core/portfolio.hpp"
#include "exp/fault_campaign.hpp"
#include "runctl/control.hpp"
#include "util/fsio.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace xlp {
namespace {

TEST(ThreadPool, InlinePoolRunsInIndexOrder) {
  util::ThreadPool pool(1, 16);
  EXPECT_EQ(pool.size(), 1);
  std::vector<long> order;
  EXPECT_TRUE(pool.parallel_for(16, [&](long i) { order.push_back(i); }));
  ASSERT_EQ(order.size(), 16u);
  for (long i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPool, WorkersAreCappedByTheItemCount) {
  util::ThreadPool three(8, 3);
  EXPECT_EQ(three.size(), 3);
  // One item: an inline pool, whatever the thread request.
  util::ThreadPool one(4, 1);
  EXPECT_EQ(one.size(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  EXPECT_TRUE(one.parallel_for(1, [&](long) {
    ran_on = std::this_thread::get_id();
  }));
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, EmptyRangeCompletesTrivially) {
  util::ThreadPool pool(4, 4);
  EXPECT_TRUE(pool.parallel_for(0, [](long) { FAIL(); }));
}

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  constexpr long kCount = 5000;
  util::ThreadPool pool(4, kCount);
  EXPECT_EQ(pool.size(), 4);
  // The dispatch counter hands every index to exactly one claimer, so a
  // plain vector slot per item is race-free; the atomic total double-checks
  // nothing ran twice.
  std::vector<int> hit(kCount, 0);
  std::atomic<long> total{0};
  EXPECT_TRUE(pool.parallel_for(kCount, [&](long i) {
    hit[static_cast<std::size_t>(i)] += 1;
    total.fetch_add(1, std::memory_order_relaxed);
  }));
  EXPECT_EQ(total.load(), kCount);
  for (long i = 0; i < kCount; ++i)
    ASSERT_EQ(hit[static_cast<std::size_t>(i)], 1) << "item " << i;
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  util::ThreadPool pool(4, 16);
  // Items 3 and 7 both throw on every run; which one is *seen* first
  // depends on scheduling, but the pool must always rethrow index 3.
  const auto body = [](long i) {
    if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
  };
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.parallel_for(16, body);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3");
    }
  }
}

TEST(ThreadPool, CancelledBeforeStartRunsNothing) {
  for (const int threads : {1, 4}) {
    util::ThreadPool pool(threads, 64);
    runctl::CancelToken token;
    token.request(runctl::RunStatus::kInterrupted);
    runctl::RunControl control(&token);
    std::atomic<long> executed{0};
    EXPECT_FALSE(pool.parallel_for(
        64, [&](long) { executed.fetch_add(1); }, &control));
    EXPECT_EQ(executed.load(), 0) << "pool size " << threads;
  }
}

TEST(ThreadPool, CancellationMidRunSkipsTheTail) {
  constexpr long kCount = 200000;
  util::ThreadPool pool(2, kCount);
  runctl::CancelToken token;
  runctl::RunControl control(&token);
  std::atomic<long> executed{0};
  const bool complete = pool.parallel_for(
      kCount,
      [&](long i) {
        if (i == 0) token.request(runctl::RunStatus::kInterrupted);
        executed.fetch_add(1, std::memory_order_relaxed);
        // Give each item a visible cost so the stop lands long before the
        // range could drain.
        volatile int spin = 0;
        for (int s = 0; s < 200; ++s) spin = spin + s;
      },
      &control);
  EXPECT_FALSE(complete);
  EXPECT_GE(executed.load(), 1);
  EXPECT_LT(executed.load(), kCount);
}

TEST(ThreadCount, ResolutionOrderIsOverrideThenEnvThenHardware) {
  util::set_default_thread_count(0);  // start from a clean slate
  ::unsetenv("XLP_THREADS");
  EXPECT_EQ(util::default_thread_count(), util::hardware_threads());
  EXPECT_GE(util::hardware_threads(), 1);

  ::setenv("XLP_THREADS", "3", 1);
  EXPECT_EQ(util::default_thread_count(), 3);

  util::set_default_thread_count(2);  // the --threads flag outranks the env
  EXPECT_EQ(util::default_thread_count(), 2);
  EXPECT_EQ(util::resolve_thread_count(0), 2);
  EXPECT_EQ(util::resolve_thread_count(-1), 2);
  EXPECT_EQ(util::resolve_thread_count(5), 5);

  util::set_default_thread_count(0);
  EXPECT_EQ(util::default_thread_count(), 3);
  ::unsetenv("XLP_THREADS");
  EXPECT_EQ(util::default_thread_count(), util::hardware_threads());
}

core::PortfolioOptions small_portfolio(int threads) {
  core::PortfolioOptions options;
  options.chains = 4;
  options.threads = threads;
  options.sa = core::SaParams{}.with_moves(300);
  return options;
}

TEST(ParallelDeterminism, SharedEvaluationCounterIsExactUnderContention) {
  // Portfolio chains derive their objectives from one root, so every copy
  // shares the root's evaluation counter. Concurrent evaluate() calls (and
  // delta-evaluator proposals) must tally exactly — the counter is a
  // relaxed atomic; a plain long here is a data race TSan flags and a
  // lost-update bug everywhere.
  core::RowObjective root(8, route::HopWeights{});
  root.reset_evaluations();
  constexpr int kThreads = 8;
  constexpr int kEvalsPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&root, t] {
      // Copies share the root's counter, like portfolio sub-objectives.
      const core::RowObjective mine = root;
      const topo::RowTopology row(8, {{0, 2 + (t % 5)}});
      for (int i = 0; i < kEvalsPerThread; ++i) (void)mine.evaluate(row);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(root.evaluations(),
            static_cast<long>(kThreads) * kEvalsPerThread);
}

TEST(ParallelDeterminism, PortfolioIsByteIdenticalAcrossThreadCounts) {
  const auto one = core::solve_portfolio(8, route::HopWeights{}, std::nullopt,
                                         4, small_portfolio(1), 99);
  const auto eight = core::solve_portfolio(8, route::HopWeights{},
                                           std::nullopt, 4,
                                           small_portfolio(8), 99);
  EXPECT_EQ(one.best.value, eight.best.value);
  EXPECT_EQ(one.best.placement.to_string(),
            eight.best.placement.to_string());
  EXPECT_EQ(one.best.evaluations, eight.best.evaluations);
  EXPECT_EQ(one.total_evaluations, eight.total_evaluations);
  ASSERT_EQ(one.chain_values.size(), eight.chain_values.size());
  for (std::size_t i = 0; i < one.chain_values.size(); ++i)
    EXPECT_EQ(one.chain_values[i], eight.chain_values[i]) << "chain " << i;
}

TEST(ParallelDeterminism, PortfolioCheckpointBytesAcrossThreadCounts) {
  const std::string dir = ::testing::TempDir();
  const std::string ck1 = dir + "xlp_parallel_ck1.json";
  const std::string ck8 = dir + "xlp_parallel_ck8.json";

  core::PortfolioOptions a = small_portfolio(1);
  a.checkpoint_path = ck1;
  a.sa.checkpoint_every_moves = 100;
  core::PortfolioOptions b = small_portfolio(8);
  b.checkpoint_path = ck8;
  b.sa.checkpoint_every_moves = 100;
  (void)core::solve_portfolio(8, route::HopWeights{}, std::nullopt, 4, a, 7);
  (void)core::solve_portfolio(8, route::HopWeights{}, std::nullopt, 4, b, 7);

  const auto bytes1 = util::read_file(ck1);
  const auto bytes8 = util::read_file(ck8);
  ASSERT_TRUE(bytes1.has_value());
  ASSERT_TRUE(bytes8.has_value());
  EXPECT_EQ(*bytes1, *bytes8);
  std::filesystem::remove(ck1);
  std::filesystem::remove(ck8);
}

TEST(ParallelDeterminism, SweepIsIdenticalAcrossThreadCounts) {
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(200);
  options.latency = latency::LatencyParams::zero_load();

  util::set_default_thread_count(1);
  Rng rng_seq(321);
  const auto seq = core::sweep_link_limits(8, 8, options, rng_seq);

  util::set_default_thread_count(8);
  Rng rng_par(321);
  const auto par = core::sweep_link_limits(8, 8, options, rng_par);
  util::set_default_thread_count(0);

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].link_limit, par[i].link_limit);
    EXPECT_EQ(seq[i].placement.value, par[i].placement.value);
    EXPECT_EQ(seq[i].placement.placement.to_string(),
              par[i].placement.placement.to_string());
    EXPECT_EQ(seq[i].placement.evaluations, par[i].placement.evaluations);
    EXPECT_EQ(seq[i].breakdown.total(), par[i].breakdown.total());
  }
  // The caller's generator advanced identically too (one step per fork).
  EXPECT_EQ(rng_seq(), rng_par());
}

TEST(ParallelDeterminism, CampaignJsonIsByteIdenticalAcrossThreadCounts) {
  // Tiny scaled campaign, as in the fault determinism test.
  exp::FaultCampaignConfig config;
  config.n = 4;
  config.link_limit = 2;
  config.trials = 3;
  config.fault_cycle = 100;
  config.seed = 17;
  config.scale = 0.02;

  config.threads = 1;
  const std::string seq = exp::run_fault_campaign(config).to_json().dump();
  config.threads = 8;
  const std::string par = exp::run_fault_campaign(config).to_json().dump();
  EXPECT_EQ(seq, par);
}

TEST(FsioConcurrency, ManyWritersLeaveOneCompleteDocumentAndNoTempFiles) {
  const std::string dir =
      ::testing::TempDir() + "xlp_fsio_stress_" +
      std::to_string(static_cast<long>(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/target.json";

  constexpr int kWriters = 8;
  constexpr int kRepeats = 25;
  // Every writer repeatedly publishes its own (large, distinct) document;
  // whichever rename lands last must be visible in full.
  std::vector<std::string> documents;
  for (int w = 0; w < kWriters; ++w)
    documents.push_back(std::string(8192, static_cast<char>('a' + w)));

  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRepeats; ++r)
        if (!util::atomic_write_file(path, documents[static_cast<size_t>(w)]))
          failures.fetch_add(1);
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto final_bytes = util::read_file(path);
  ASSERT_TRUE(final_bytes.has_value());
  EXPECT_NE(std::find(documents.begin(), documents.end(), *final_bytes),
            documents.end())
      << "published file is not any writer's complete document";

  int leftover_tmp = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string().find(".tmp.") != std::string::npos)
      ++leftover_tmp;
  EXPECT_EQ(leftover_tmp, 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xlp
