// Tests of the observability layer: counter/gauge/timer semantics (incl.
// thread safety), JSON escaping and parse/dump round trips, and the
// trace-sink contract (null sink is a disabled no-op, JSONL sink writes
// one monotonically-timestamped record per event).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace xlp::obs {
namespace {

TEST(Metrics, CountersAccumulateAndDefaultToZero) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter("absent"), 0);
  reg.add("moves");
  reg.add("moves", 41);
  EXPECT_EQ(reg.counter("moves"), 42);
}

TEST(Metrics, GaugesKeepTheLatestValue) {
  MetricsRegistry reg;
  EXPECT_DOUBLE_EQ(reg.gauge("absent"), 0.0);
  reg.set_gauge("temperature", 10.0);
  reg.set_gauge("temperature", 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("temperature"), 2.5);
}

TEST(Metrics, TimersAccumulateSamples) {
  MetricsRegistry reg;
  reg.record_time("phase", 0.5);
  reg.record_time("phase", 1.5);
  const TimerStat stat = reg.timer("phase");
  EXPECT_DOUBLE_EQ(stat.seconds, 2.0);
  EXPECT_EQ(stat.count, 2);
  EXPECT_DOUBLE_EQ(stat.mean_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(reg.timer("absent").mean_seconds(), 0.0);
}

TEST(Metrics, ScopedTimerRecordsOneSample) {
  MetricsRegistry reg;
  { const ScopedTimer t(reg, "scope"); }
  const TimerStat stat = reg.timer("scope");
  EXPECT_EQ(stat.count, 1);
  EXPECT_GE(stat.seconds, 0.0);
}

TEST(Metrics, ConcurrentIncrementsAreNotLost) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  // Half the threads count through a handle resolved once, half through
  // the named add: both reach the same atomic, so no increment is lost.
  std::atomic<long>& hits = reg.counter_handle("hits");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&reg, &hits, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0)
          hits.fetch_add(1, std::memory_order_relaxed);
        else
          reg.add("hits");
        reg.record_time("work", 1e-6);
      }
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("hits"), kThreads * kPerThread);
  EXPECT_EQ(&reg.counter_handle("hits"), &hits);
  EXPECT_EQ(reg.timer("work").count, kThreads * kPerThread);
}

TEST(Metrics, CounterHandlesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  std::atomic<long>& first = reg.counter_handle("first");
  // Registering many more counters must not move the one already handed
  // out: callers keep the reference for the registry's lifetime.
  for (int i = 0; i < 200; ++i) reg.add("other." + std::to_string(i));
  first.fetch_add(5, std::memory_order_relaxed);
  reg.add("first", 2);
  EXPECT_EQ(&reg.counter_handle("first"), &first);
  EXPECT_EQ(first.load(), 7);
  EXPECT_EQ(reg.counter("first"), 7);
  EXPECT_NE(&reg.counter_handle("other.0"), &first);
  EXPECT_EQ(reg.counter("other.199"), 1);
}

TEST(Metrics, JsonSnapshotRoundTrips) {
  MetricsRegistry reg;
  reg.add("runs", 3);
  (void)reg.counter_handle("idle");  // resolved but never bumped
  reg.set_gauge("load", 0.25);
  reg.record_time("solve", 1.25);
  const auto parsed = Json::parse(reg.to_json().dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("counters")->find("runs")->as_long(), 3);
  EXPECT_EQ(parsed->find("counters")->find("idle"), nullptr);
  EXPECT_DOUBLE_EQ(parsed->find("gauges")->find("load")->as_number(), 0.25);
  const Json* solve = parsed->find("timers")->find("solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_DOUBLE_EQ(solve->find("seconds")->as_number(), 1.25);
  EXPECT_EQ(solve->find("count")->as_long(), 1);
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, EscapedStringsRoundTrip) {
  const std::string nasty = "quote\" slash\\ newline\n tab\t ctrl\x02 end";
  const std::string doc = Json(nasty).dump();
  const auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), nasty);
}

TEST(Json, DumpsScalarsCompactly) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42L).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NestedDocumentRoundTrips) {
  Json doc = Json::object()
                 .set("name", "sa.cool")
                 .set("step", 3)
                 .set("temperature", 1.25)
                 .set("drained", false)
                 .set("values", Json::array().push(1).push(2.5).push("x"))
                 .set("nested", Json::object().set("k", Json()));
  const auto parsed = Json::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("name")->as_string(), "sa.cool");
  EXPECT_EQ(parsed->find("step")->as_long(), 3);
  EXPECT_DOUBLE_EQ(parsed->find("temperature")->as_number(), 1.25);
  EXPECT_FALSE(parsed->find("drained")->as_bool());
  ASSERT_EQ(parsed->find("values")->size(), 3u);
  EXPECT_EQ(parsed->find("values")->at(0).as_long(), 1);
  EXPECT_DOUBLE_EQ(parsed->find("values")->at(1).as_number(), 2.5);
  EXPECT_EQ(parsed->find("values")->at(2).as_string(), "x");
  EXPECT_TRUE(parsed->find("nested")->find("k")->is_null());
  // Second round trip is byte-identical (member order is preserved).
  EXPECT_EQ(parsed->dump(), doc.dump());
}

TEST(Json, DoublesSurviveRoundTrip) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-8}) {
    const auto parsed = Json::parse(Json(v).dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->as_number(), v);
  }
}

TEST(Json, ParseRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "\"unterminated", "{\"a\":}", "1 2",
        "{\"a\":1,}", "[1]]", "nul"}) {
    EXPECT_FALSE(Json::parse(bad).has_value()) << bad;
  }
}

TEST(Json, ParseReportsErrorOffset) {
  struct Case {
    const char* text;
    std::size_t offset;
  };
  // The offset points at the offending token (start of a bad literal), or
  // at text.size() when the document ends prematurely.
  for (const Case c : {Case{"{", 1}, Case{"[1,]", 3}, Case{"{\"a\":}", 5},
                       Case{"1 2", 2}, Case{"tru", 0}}) {
    std::size_t offset = 9999;
    EXPECT_FALSE(Json::parse(c.text, &offset).has_value()) << c.text;
    EXPECT_EQ(offset, c.offset) << c.text;
  }
  // Untouched on success.
  std::size_t offset = 9999;
  EXPECT_TRUE(Json::parse("{\"a\":1}", &offset).has_value());
  EXPECT_EQ(offset, 9999u);
  // And a null pointer is allowed.
  EXPECT_FALSE(Json::parse("{", nullptr).has_value());
}

TEST(Json, DumpsNonFiniteNumbersAsNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(nan).dump(), "null");
  EXPECT_EQ(Json(inf).dump(), "null");
  EXPECT_EQ(Json(-inf).dump(), "null");
  // Inside a document the member survives as null, so every emitted
  // document re-parses.
  const Json doc = Json::object().set("bad", Json(nan)).set("good", 1.5);
  EXPECT_EQ(doc.dump(), "{\"bad\":null,\"good\":1.5}");
  EXPECT_TRUE(Json::parse(doc.dump()).has_value());
}

TEST(Json, ParseAcceptsWhitespaceAndUnicodeEscapes) {
  const auto parsed = Json::parse("  { \"a\" : [ 1 , \"\\u0041\" ] }  ");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("a")->at(1).as_string(), "A");
}

TEST(Json, TypeMismatchesThrow) {
  EXPECT_THROW((void)Json(1).as_string(), PreconditionError);
  EXPECT_THROW((void)Json("x").as_number(), PreconditionError);
  EXPECT_THROW((void)Json().as_bool(), PreconditionError);
  EXPECT_THROW((void)Json::object().at(0), PreconditionError);
  EXPECT_THROW(Json().set("k", Json()), PreconditionError);
  EXPECT_THROW(Json().push(Json()), PreconditionError);
}

TEST(Metrics, WriteJsonFileCreatesMissingParentDirectories) {
  MetricsRegistry reg;
  reg.add("runs");
  const std::string path =
      ::testing::TempDir() + "xlp_obs_nested/deeper/metrics.json";
  ASSERT_TRUE(reg.write_json_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = Json::parse(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("counters")->find("runs")->as_long(), 1);
}

TEST(Metrics, EnsureParentDirHandlesPlainFilenames) {
  // No directory component: nothing to create, must succeed.
  EXPECT_TRUE(ensure_parent_dir("just_a_name.json"));
  EXPECT_TRUE(ensure_parent_dir(::testing::TempDir() + "xlp_obs_flat.json"));
}

TEST(Trace, NullSinkIsDisabledNoOp) {
  NullTraceSink sink;
  EXPECT_FALSE(sink.enabled());
  sink.emit("anything", Json::object().set("k", 1));  // must not crash
  EXPECT_FALSE(null_trace_sink().enabled());
}

TEST(Trace, JsonlSinkWritesOneParsableRecordPerEvent) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  EXPECT_TRUE(sink.enabled());
  sink.emit("first", Json::object().set("value", 1));
  sink.emit("second", Json::object().set("text", "a\nb"));
  EXPECT_EQ(sink.events_written(), 2);

  std::istringstream lines(os.str());
  std::string line;
  double prev_ts = -1.0;
  std::vector<std::string> events;
  while (std::getline(lines, line)) {
    const auto record = Json::parse(line);
    ASSERT_TRUE(record.has_value()) << line;
    const double ts = record->find("ts")->as_number();
    EXPECT_GE(ts, prev_ts);
    prev_ts = ts;
    events.push_back(record->find("event")->as_string());
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "first");
  EXPECT_EQ(events[1], "second");
}

TEST(Trace, PayloadFieldsFollowTsAndEvent) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  sink.emit("e", Json::object().set("a", 1).set("b", "two"));
  const auto record = Json::parse(os.str().substr(0, os.str().size() - 1));
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->members().size(), 4u);
  EXPECT_EQ(record->members()[0].first, "ts");
  EXPECT_EQ(record->members()[1].first, "event");
  EXPECT_EQ(record->members()[2].first, "a");
  EXPECT_EQ(record->members()[3].first, "b");
  EXPECT_EQ(record->find("b")->as_string(), "two");
}

}  // namespace
}  // namespace xlp::obs
