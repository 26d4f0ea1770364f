// Tests of the bounded-memory time-series recorder: downsampling keeps
// point counts under capacity for arbitrarily long runs while preserving
// the weighted mean exactly, adopt() merges chain recorders
// deterministically, and the SA / portfolio instrumentation records the
// cooling trajectory with byte-identical output at any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "core/portfolio.hpp"
#include "core/sa.hpp"
#include "obs/timeseries.hpp"
#include "topo/connection_matrix.hpp"
#include "util/rng.hpp"

namespace xlp::obs {
namespace {

TEST(SeriesRecorder, TenMillionSamplesStayUnderCapacity) {
  constexpr long kSamples = 10'000'000;
  SeriesRecorder rec(256);
  double sum = 0.0;
  for (long i = 0; i < kSamples; ++i) {
    const double y = static_cast<double>(i % 1000);
    rec.append("load", static_cast<double>(i), y);
    sum += y;
  }
  const auto points = rec.sampled("load");
  ASSERT_FALSE(points.empty());
  EXPECT_LE(points.size(), rec.capacity());

  // No raw sample is lost: the counts add back up to the append count and
  // the count-weighted mean matches the true mean (downsampling averages,
  // it never drops).
  long total_count = 0;
  double weighted_sum = 0.0;
  for (const auto& p : points) {
    total_count += p.count;
    weighted_sum += p.y * static_cast<double>(p.count);
  }
  EXPECT_EQ(total_count, kSamples);
  EXPECT_NEAR(weighted_sum / static_cast<double>(total_count),
              sum / static_cast<double>(kSamples), 1e-6);

  // x stays monotonic after arbitrarily many pair merges.
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LT(points[i - 1].x, points[i].x);
}

TEST(SeriesRecorder, ShortSeriesAreLossless) {
  SeriesRecorder rec(64);
  for (int i = 0; i < 10; ++i)
    rec.append("s", static_cast<double>(i), static_cast<double>(i * i));
  const auto points = rec.sampled("s");
  ASSERT_EQ(points.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(points[static_cast<std::size_t>(i)].x, i);
    EXPECT_DOUBLE_EQ(points[static_cast<std::size_t>(i)].y, i * i);
    EXPECT_EQ(points[static_cast<std::size_t>(i)].count, 1);
  }
}

TEST(SeriesRecorder, CapacityIsClampedAndEven) {
  EXPECT_GE(SeriesRecorder(0).capacity(), 4u);
  EXPECT_EQ(SeriesRecorder(7).capacity() % 2, 0u);
  // A tiny capacity still bounds a long run.
  SeriesRecorder rec(4);
  for (int i = 0; i < 100'000; ++i) rec.append("s", i, 1.0);
  EXPECT_LE(rec.sampled("s").size(), rec.capacity());
}

TEST(SeriesRecorder, PendingBucketIsIncludedInSampled) {
  SeriesRecorder rec(8);
  // Push past one compaction so stride > 1, then append fewer samples
  // than a full stride: they must still show up.
  for (int i = 0; i < 9; ++i) rec.append("s", i, 2.0);
  const auto points = rec.sampled("s");
  long total = 0;
  for (const auto& p : points) total += p.count;
  EXPECT_EQ(total, 9);
}

TEST(SeriesRecorder, AdoptMergesDisjointRecorders) {
  SeriesRecorder a(32), b(32);
  a.append("chain0.obj", 1.0, 10.0);
  b.append("chain1.obj", 1.0, 20.0);
  a.adopt(b);
  EXPECT_NE(a.find("chain0.obj"), nullptr);
  EXPECT_NE(a.find("chain1.obj"), nullptr);
  EXPECT_EQ(a.names().size(), 2u);
}

TEST(SeriesRecorder, AdoptDuplicateFavorsOther) {
  SeriesRecorder a(32), b(32);
  a.append("s", 1.0, 1.0);
  b.append("s", 1.0, 99.0);
  a.adopt(b);
  const auto points = a.sampled("s");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].y, 99.0);
}

TEST(SeriesRecorder, EqualRecordingsDumpByteIdentically) {
  const auto record = [] {
    SeriesRecorder rec(16);
    for (int i = 0; i < 1000; ++i)
      rec.append("a", i, std::sin(static_cast<double>(i)));
    for (int i = 0; i < 37; ++i) rec.append("b", i, i * 0.5);
    return rec.to_json().dump();
  };
  EXPECT_EQ(record(), record());
  EXPECT_NE(record().find("\"schema\":\"xlp-series/1\""), std::string::npos);
}

TEST(SaInstrumentation, RecordsCoolingTrajectory) {
  const core::RowObjective obj(8, route::HopWeights{});
  Rng rng(3);
  const auto initial = topo::ConnectionMatrix::random(8, 4, rng, 0.5);
  core::SaParams params;
  params.total_moves = 400;
  params.moves_per_cool = 100;
  SeriesRecorder rec(64);
  params.series = &rec;
  Rng move_rng(7);
  (void)core::anneal_connection_matrix(initial, obj, params, move_rng);

  for (const char* name :
       {"sa.objective", "sa.best", "sa.temperature", "sa.acceptance"}) {
    const SeriesRecorder::Series* s = rec.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->total_samples, 400 / 100) << name;
  }
  // Best-so-far is monotonically non-increasing; acceptance is a fraction.
  const auto best = rec.sampled("sa.best");
  for (std::size_t i = 1; i < best.size(); ++i)
    EXPECT_LE(best[i].y, best[i - 1].y);
  for (const auto& p : rec.sampled("sa.acceptance")) {
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

TEST(PortfolioInstrumentation, SeriesAreThreadCountInvariant) {
  const auto record = [](int threads) {
    core::PortfolioOptions options;
    options.chains = 4;
    options.threads = threads;
    options.sa.total_moves = 500;
    options.sa.moves_per_cool = 100;
    SeriesRecorder rec(32);
    options.sa.series = &rec;
    (void)core::solve_portfolio(8, route::HopWeights{}, std::nullopt, 4,
                                options, 5);
    return rec.to_json().dump();
  };
  const std::string serial = record(1);
  EXPECT_EQ(serial, record(4));
  // Every chain contributed under its own prefix.
  for (const char* prefix : {"chain0.", "chain1.", "chain2.", "chain3."})
    EXPECT_NE(serial.find(std::string(prefix) + "sa.best"),
              std::string::npos)
        << prefix;
}

}  // namespace
}  // namespace xlp::obs
