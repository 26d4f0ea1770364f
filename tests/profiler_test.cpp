// Hierarchical profiler: nesting, exclusive-time accounting, deterministic
// multi-thread merge, and the disabled-by-default fast path.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"

using namespace xlp;

namespace {

void spin_for(std::chrono::microseconds duration) {
  const auto end = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < end) {
  }
}

const obs::ProfileEntry* find_entry(const obs::ProfileReport& report,
                                    const std::string& path) {
  for (const auto& e : report.entries())
    if (e.path == path) return &e;
  return nullptr;
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Profiler::reset();
    obs::Profiler::enable();
  }
  void TearDown() override {
    obs::Profiler::disable();
    obs::Profiler::reset();
  }
};

TEST_F(ProfilerTest, RecordsNestedScopesAsTree) {
  {
    obs::ProfileScope outer("outer");
    {
      obs::ProfileScope inner("inner");
      obs::ProfileScope leaf("leaf");
    }
    { obs::ProfileScope inner("inner"); }
  }
  obs::Profiler::disable();
  const auto report = obs::Profiler::snapshot();

  const auto* outer = find_entry(report, "outer");
  const auto* inner = find_entry(report, "outer;inner");
  const auto* leaf = find_entry(report, "outer;inner;leaf");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(leaf->depth, 2);
  EXPECT_EQ(outer->hits, 1);
  EXPECT_EQ(inner->hits, 2);
  EXPECT_EQ(leaf->hits, 1);
  // No scope named "inner" or "leaf" ever ran at the root.
  EXPECT_EQ(find_entry(report, "inner"), nullptr);
  EXPECT_EQ(find_entry(report, "leaf"), nullptr);
}

TEST_F(ProfilerTest, ExclusiveTimeExcludesChildren) {
  {
    obs::ProfileScope outer("outer");
    spin_for(std::chrono::microseconds(2000));
    {
      obs::ProfileScope inner("inner");
      spin_for(std::chrono::microseconds(2000));
    }
  }
  obs::Profiler::disable();
  const auto report = obs::Profiler::snapshot();

  const auto* outer = find_entry(report, "outer");
  const auto* inner = find_entry(report, "outer;inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Inclusive covers the child; exclusive does not.
  EXPECT_GE(outer->inclusive_seconds, 3.5e-3);
  EXPECT_NEAR(outer->exclusive_seconds,
              outer->inclusive_seconds - inner->inclusive_seconds, 1e-9);
  EXPECT_GE(inner->inclusive_seconds, 1.5e-3);
  EXPECT_LT(outer->exclusive_seconds, outer->inclusive_seconds);
  // Roots account for all recorded wall time.
  EXPECT_NEAR(report.root_inclusive_seconds(), outer->inclusive_seconds,
              1e-12);
}

TEST_F(ProfilerTest, SiblingScopesReportedInNameOrderRegardlessOfRunOrder) {
  {
    obs::ProfileScope root("root");
    { obs::ProfileScope z("zeta"); }
    { obs::ProfileScope a("alpha"); }
    { obs::ProfileScope m("mid"); }
  }
  obs::Profiler::disable();
  const auto report = obs::Profiler::snapshot();

  std::vector<std::string> depth1;
  for (const auto& e : report.entries())
    if (e.depth == 1) depth1.push_back(e.name);
  EXPECT_EQ(depth1, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST_F(ProfilerTest, MergesThreadsDeterministically) {
  // Every worker records the same shape; the merged report must sum hits
  // across threads and never depend on the interleaving.
  constexpr int kThreads = 4;
  constexpr int kRepeats = 25;
  auto work = [] {
    for (int i = 0; i < kRepeats; ++i) {
      obs::ProfileScope outer("work");
      { obs::ProfileScope a("phase_a"); }
      { obs::ProfileScope b("phase_b"); }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(work);
  for (auto& t : threads) t.join();
  obs::Profiler::disable();

  const auto report = obs::Profiler::snapshot();
  const auto* outer = find_entry(report, "work");
  const auto* a = find_entry(report, "work;phase_a");
  const auto* b = find_entry(report, "work;phase_b");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(outer->hits, static_cast<long>(kThreads) * kRepeats);
  EXPECT_EQ(a->hits, static_cast<long>(kThreads) * kRepeats);
  EXPECT_EQ(b->hits, static_cast<long>(kThreads) * kRepeats);
  // One merged node per path, not one per thread.
  int work_entries = 0;
  for (const auto& e : report.entries())
    if (e.name == "work") ++work_entries;
  EXPECT_EQ(work_entries, 1);
  // Two snapshots of the same trees are byte-identical.
  EXPECT_EQ(report.to_json().dump(),
            obs::Profiler::snapshot().to_json().dump());
  EXPECT_EQ(report.to_collapsed(), obs::Profiler::snapshot().to_collapsed());
}

TEST_F(ProfilerTest, CollapsedStackUsesSemicolonPathsAndMicroseconds) {
  {
    obs::ProfileScope outer("outer");
    spin_for(std::chrono::microseconds(1500));
    {
      obs::ProfileScope inner("inner");
      spin_for(std::chrono::microseconds(1500));
    }
  }
  obs::Profiler::disable();
  const std::string folded = obs::Profiler::snapshot().to_collapsed();
  EXPECT_NE(folded.find("outer "), std::string::npos);
  EXPECT_NE(folded.find("outer;inner "), std::string::npos);
  // Every line is "path <integer>".
  EXPECT_NE(folded.find('\n'), std::string::npos);
}

TEST_F(ProfilerTest, ResetDropsRecordedData) {
  { obs::ProfileScope s("gone"); }
  obs::Profiler::reset();
  { obs::ProfileScope s("kept"); }
  obs::Profiler::disable();
  const auto report = obs::Profiler::snapshot();
  EXPECT_EQ(find_entry(report, "gone"), nullptr);
  EXPECT_NE(find_entry(report, "kept"), nullptr);
}

TEST(ProfilerDisabledTest, DisabledScopesRecordNothing) {
  obs::Profiler::reset();
  ASSERT_FALSE(obs::Profiler::enabled());
  {
    obs::ProfileScope s("invisible");
    obs::ProfileScope t("also_invisible");
  }
  EXPECT_TRUE(obs::Profiler::snapshot().empty());
}

TEST(ProfilerDisabledTest, ScopeSpanningDisableStillPopsCleanly) {
  // A scope opened while enabled and closed after disable() must still
  // accrue and pop, leaving the cursor at the root for the next scope.
  obs::Profiler::reset();
  obs::Profiler::enable();
  {
    obs::ProfileScope s("spanning");
    obs::Profiler::disable();
  }
  obs::Profiler::enable();
  { obs::ProfileScope s("after"); }
  obs::Profiler::disable();
  const auto report = obs::Profiler::snapshot();
  ASSERT_EQ(report.entries().size(), 2u);
  EXPECT_EQ(report.entries()[0].depth, 0);
  EXPECT_EQ(report.entries()[1].depth, 0);
  obs::Profiler::reset();
}

}  // namespace
