// Tests of the placement service: canonical JSON / content hashing shared
// with the run ledger, the request model's kind-restricted identity, the
// persisted LRU result cache, and the batch server's dedup + determinism
// contract (identical requests -> byte-identical replies at any thread
// count, exactly one execution).

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "latency/model.hpp"
#include "obs/canonical.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "svc/cache.hpp"
#include "svc/client.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "topo/builders.hpp"
#include "traffic/matrix.hpp"
#include "traffic/patterns.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/stopwatch.hpp"

namespace xlp::svc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "xlp_svc_" + name;
  fs::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------- canonical

TEST(CanonicalJson, SortsObjectKeysRecursively) {
  const obs::Json a = obs::Json::object()
                          .set("b", 1)
                          .set("a", obs::Json::object()
                                        .set("z", true)
                                        .set("y", "text"));
  const obs::Json b = obs::Json::object()
                          .set("a", obs::Json::object()
                                        .set("y", "text")
                                        .set("z", true))
                          .set("b", 1);
  EXPECT_EQ(obs::canonical_json(a), obs::canonical_json(b));
  EXPECT_EQ(obs::canonical_json(a),
            "{\"a\":{\"y\":\"text\",\"z\":true},\"b\":1}");
}

TEST(CanonicalJson, PreservesArrayOrder) {
  obs::Json doc = obs::Json::object();
  obs::Json arr = obs::Json::array();
  arr.push(3).push(1).push(2);
  doc.set("xs", std::move(arr));
  EXPECT_EQ(obs::canonical_json(doc), "{\"xs\":[3,1,2]}");
}

TEST(CanonicalJson, NumberFormattingIsStable) {
  // Integral doubles print without a fraction; non-integral doubles print
  // with round-trip precision — the properties the content hash rests on.
  const obs::Json doc = obs::Json::object()
                            .set("i", 4)
                            .set("d", 0.02)
                            .set("whole", 2.0);
  const std::string text = obs::canonical_json(doc);
  EXPECT_EQ(text, "{\"d\":0.02,\"i\":4,\"whole\":2}");
  // And it is a fixed point: parse + canonicalize again changes nothing.
  const auto reparsed = obs::Json::parse(text);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(obs::canonical_json(*reparsed), text);
}

TEST(Fnv1a64Hex, MatchesKnownVectors) {
  // FNV-1a 64: the empty string hashes to the offset basis.
  EXPECT_EQ(obs::fnv1a64_hex(""), "cbf29ce484222325");
  EXPECT_EQ(obs::fnv1a64_hex("a").size(), 16u);
  EXPECT_NE(obs::fnv1a64_hex("a"), obs::fnv1a64_hex("b"));
}

TEST(CanonicalJson, LedgerRunIdUsesCanonicalForm) {
  // Member insertion order must not change a ledger run id.
  const obs::Json p1 = obs::Json::object().set("n", 8).set("c", 4);
  const obs::Json p2 = obs::Json::object().set("c", 4).set("n", 8);
  obs::LedgerEntry e1, e2;
  e1.params = p1;
  e2.params = p2;
  EXPECT_EQ(e1.run_id(), e2.run_id());
}

// ------------------------------------------------------------------ request

TEST(Request, IdIgnoresClientMemberOrder) {
  const auto a = obs::Json::parse(
      R"({"kind":"solve","n":8,"c":4,"method":"dcsa","moves":500,"seed":3})");
  const auto b = obs::Json::parse(
      R"({"seed":3,"moves":500,"method":"dcsa","c":4,"n":8,"kind":"solve"})");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(Request::from_json(*a).id(), Request::from_json(*b).id());
}

TEST(Request, IdRestrictedToFieldsTheKindConsumes) {
  Request solve;
  solve.kind = RequestKind::kSolve;
  Request solve2 = solve;
  solve2.load = 0.9;          // evaluate/simulate field: no effect on solve
  solve2.routing = "o1turn";  // simulate field: no effect either
  EXPECT_EQ(solve.id(), solve2.id());

  Request eval;
  eval.kind = RequestKind::kEvaluate;
  Request eval2 = eval;
  eval2.seed = 999;  // evaluate is analytic: the seed is not identity
  EXPECT_EQ(eval.id(), eval2.id());
  eval2.load = 0.5;  // but the load is
  EXPECT_NE(eval.id(), eval2.id());
}

TEST(Request, FromJsonRejectsUnknownAndMalformedFields) {
  const auto unknown = obs::Json::parse(R"({"kind":"solve","movse":5})");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_THROW((void)Request::from_json(*unknown), Error);
  const auto missing_kind = obs::Json::parse(R"({"n":8})");
  ASSERT_TRUE(missing_kind.has_value());
  EXPECT_THROW((void)Request::from_json(*missing_kind), Error);
  const auto wrong_type = obs::Json::parse(R"({"kind":"solve","n":"big"})");
  ASSERT_TRUE(wrong_type.has_value());
  EXPECT_THROW((void)Request::from_json(*wrong_type), Error);
}

TEST(Request, ValidateEnforcesRanges) {
  Request request;
  request.link_limit = 3;  // does not divide 256
  EXPECT_THROW(request.validate(), Error);
  request.link_limit = 4;
  request.method = "bogus";
  EXPECT_THROW(request.validate(), Error);
  request.method = "dcsa";
  EXPECT_NO_THROW(request.validate());
  request.kind = RequestKind::kEvaluate;
  request.workload = "not_a_workload";
  EXPECT_THROW(request.validate(), Error);
}

TEST(Request, DefaultIdsArePinned) {
  // Ids of default requests as served before `chains` and `vec` existed:
  // fields at their defaults stay out of the canonical serialization, so
  // every earlier request id and cached reply stays valid.
  Request request;
  EXPECT_EQ(request.id(), "3e19cef78ca13d5e");
  request.kind = RequestKind::kEvaluate;
  EXPECT_EQ(request.id(), "73e294c6e35ed59a");
  request.kind = RequestKind::kSimulate;
  EXPECT_EQ(request.id(), "3eed1cb268043f75");
}

TEST(Request, ChainsAndVecSerializeOnlyWhenSet) {
  Request solve;
  solve.chains = 4;
  const obs::Json doc = solve.to_json();
  ASSERT_NE(doc.find("chains"), nullptr);
  EXPECT_EQ(Request::from_json(doc).id(), solve.id());
  EXPECT_NE(solve.id(), Request{}.id());
  // Chains only matter where annealing does.
  solve.method = "dnc";
  Request dnc;
  dnc.method = "dnc";
  EXPECT_EQ(solve.id(), dnc.id());

  Request simulate;
  simulate.kind = RequestKind::kSimulate;
  const std::string plain = simulate.id();
  simulate.vec = true;
  ASSERT_NE(simulate.to_json().find("vec"), nullptr);
  EXPECT_TRUE(Request::from_json(simulate.to_json()).vec);
  EXPECT_NE(simulate.id(), plain);

  solve.chains = 0;
  EXPECT_THROW(solve.validate(), Error);
}

TEST(Request, EvaluateMatchesLatencyModel) {
  Request request;
  request.kind = RequestKind::kEvaluate;
  request.n = 8;
  request.link_limit = 4;
  request.links = "1-3,3-7";
  request.workload = "uniform_random";
  request.load = 0.02;
  const obs::Json payload = execute_request(request, nullptr);

  const topo::RowTopology row(8, {{1, 3}, {3, 7}});
  const latency::MeshLatencyModel model(topo::make_design(row, 4),
                                        latency::LatencyParams::zero_load());
  const auto demand = traffic::TrafficMatrix::from_pattern(
      traffic::Pattern::kUniformRandom, 8, 0.02);
  const auto expected = model.weighted_average(demand.rates());
  ASSERT_NE(payload.find("total"), nullptr);
  EXPECT_DOUBLE_EQ(payload.find("total")->as_number(), expected.total());
}

// -------------------------------------------------------------------- cache

TEST(ResultCache, RoundTripsAndCountsHitsMisses) {
  obs::MetricsRegistry metrics;
  ResultCache cache(fresh_dir("rt"), 8, &metrics);
  const std::string id = "00000000000000aa";
  EXPECT_FALSE(cache.get(id).has_value());
  EXPECT_TRUE(cache.put(id, "{\"v\":1}"));
  const auto hit = cache.get(id);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "{\"v\":1}");
  EXPECT_EQ(metrics.counter("svc.cache.hits"), 1);
  EXPECT_EQ(metrics.counter("svc.cache.misses"), 1);
}

TEST(ResultCache, PersistsAcrossReconstruction) {
  const std::string dir = fresh_dir("persist");
  {
    ResultCache cache(dir, 8, nullptr);
    EXPECT_TRUE(cache.put("00000000000000ab", "{\"v\":2}"));
  }
  ResultCache revived(dir, 8, nullptr);
  EXPECT_EQ(revived.size(), 1u);
  const auto hit = revived.get("00000000000000ab");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "{\"v\":2}");
}

TEST(ResultCache, EvictsLeastRecentlyUsedFromMemoryAndDisk) {
  const std::string dir = fresh_dir("lru");
  obs::MetricsRegistry metrics;
  ResultCache cache(dir, 2, &metrics);
  cache.put("00000000000000a1", "1");
  cache.put("00000000000000a2", "2");
  // Touch a1 so a2 becomes the LRU victim when a3 arrives.
  EXPECT_TRUE(cache.get("00000000000000a1").has_value());
  cache.put("00000000000000a3", "3");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.contains("00000000000000a2"));
  EXPECT_TRUE(cache.contains("00000000000000a1"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "00000000000000a2.json"));
  EXPECT_EQ(metrics.counter("svc.cache.evictions"), 1);
}

TEST(ResultCache, IgnoresForeignFilesOnRescan) {
  const std::string dir = fresh_dir("foreign");
  fs::create_directories(dir);
  ASSERT_TRUE(util::atomic_write_file(dir + "/notes.txt", "hi"));
  ASSERT_TRUE(util::atomic_write_file(dir + "/metrics.json", "{}"));
  ASSERT_TRUE(util::atomic_write_file(dir + "/00000000000000ac.json",
                                      "{\"v\":3}"));
  ResultCache cache(dir, 8, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains("00000000000000ac"));
}

// ------------------------------------------------------------------- server

ServerOptions test_options(const std::string& dir,
                           obs::MetricsRegistry* metrics, int threads = 0) {
  ServerOptions options;
  options.cache_dir = dir;
  options.metrics = metrics;
  options.threads = threads;
  return options;
}

std::vector<Request> duplicate_solves(int copies) {
  Request request;
  request.kind = RequestKind::kSolve;
  request.n = 8;
  request.link_limit = 4;
  request.moves = 400;
  request.seed = 3;
  return std::vector<Request>(static_cast<std::size_t>(copies), request);
}

TEST(Server, BatchDuplicatesExecuteOnceAndShareBytes) {
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("dedupe"), &metrics, 4));
  const auto replies = server.serve_batch(duplicate_solves(4));
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(metrics.counter("svc.executed"), 1);
  EXPECT_FALSE(replies[0].cache_hit);
  for (std::size_t i = 1; i < replies.size(); ++i) {
    EXPECT_TRUE(replies[i].cache_hit);
    EXPECT_EQ(replies[i].payload_text, replies[0].payload_text);
  }
  EXPECT_EQ(server.requests_served(), 4);
}

TEST(Server, RepliesAreByteIdenticalAtAnyThreadCount) {
  // Fresh cache per thread count: both runs execute for real, and the
  // serialized reply documents must still match byte for byte.
  obs::MetricsRegistry m1, m4;
  Server one(test_options(fresh_dir("t1"), &m1, 1));
  Server four(test_options(fresh_dir("t4"), &m4, 4));
  const auto batch = sweep_batch(8, "dcsa", 400, 7);
  const auto r1 = one.serve_batch(batch);
  const auto r4 = four.serve_batch(batch);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i)
    EXPECT_EQ(r1[i].to_text(), r4[i].to_text()) << "reply " << i;
}

TEST(Server, PortfolioRepliesAreByteIdenticalAtAnyThreadCount) {
  Request request;
  request.chains = 4;
  request.moves = 600;
  request.seed = 5;
  obs::MetricsRegistry m1, m4;
  Server one(test_options(fresh_dir("chains_t1"), &m1, 1));
  Server four(test_options(fresh_dir("chains_t4"), &m4, 4));
  const Reply r1 = one.resolve(request);
  const Reply r4 = four.resolve(request);
  ASSERT_TRUE(r1.ok) << r1.to_text();
  EXPECT_EQ(r1.to_text(), r4.to_text());
  EXPECT_NE(r1.payload_text.find("D&C_SA-portfolio"), std::string::npos);
}

TEST(Server, CachedReplyIsByteIdenticalToExecutedReply) {
  obs::MetricsRegistry metrics;
  const std::string dir = fresh_dir("replay");
  std::string executed;
  {
    Server server(test_options(dir, &metrics));
    executed = server.serve_batch(duplicate_solves(1))[0].payload_text;
  }
  Server revived(test_options(dir, &metrics));
  const auto replies = revived.serve_batch(duplicate_solves(1));
  EXPECT_TRUE(replies[0].cache_hit);
  EXPECT_EQ(replies[0].payload_text, executed);
  EXPECT_EQ(metrics.counter("svc.executed"), 1);  // never re-executed
}

TEST(Server, ConcurrentIdenticalResolvesExecuteOnce) {
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("inflight"), &metrics));
  const Request request = duplicate_solves(1)[0];
  std::vector<std::string> payloads(8);
  {
    std::vector<std::thread> clients;
    clients.reserve(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i)
      clients.emplace_back([&server, &request, &payloads, i] {
        payloads[i] = server.resolve(request).payload_text;
      });
    for (auto& t : clients) t.join();
  }
  EXPECT_EQ(metrics.counter("svc.executed"), 1);
  for (const auto& payload : payloads) EXPECT_EQ(payload, payloads[0]);
}

TEST(Server, ResubmittedSweepIsAtLeastTwiceAsFast) {
  // The acceptance scenario: an 8x8 C-sweep submitted twice. The second
  // pass is pure cache hits (microseconds vs real anneals), so the 2x bound
  // has orders of magnitude of margin.
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("speedup"), &metrics));
  const auto batch = sweep_batch(8, "dcsa", 2000, 1);
  Stopwatch cold_timer;
  (void)server.serve_batch(batch);
  const double cold = cold_timer.seconds();
  Stopwatch warm_timer;
  const auto warm_replies = server.serve_batch(batch);
  const double warm = warm_timer.seconds();
  EXPECT_EQ(metrics.counter("svc.executed"),
            static_cast<long>(batch.size()));
  for (const auto& reply : warm_replies) EXPECT_TRUE(reply.cache_hit);
  EXPECT_GE(cold, 2.0 * warm) << "cold=" << cold << "s warm=" << warm << "s";
}

TEST(Server, FailedRequestsAreNotCached) {
  obs::MetricsRegistry metrics;
  const std::string dir = fresh_dir("errors");
  Server server(test_options(dir, &metrics));
  Request bad;
  bad.kind = RequestKind::kEvaluate;
  bad.links = "1-99";  // parses, but 99 is out of range for n=8 at execute
  const Reply reply = server.resolve(bad);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(metrics.counter("svc.errors"), 1);
  EXPECT_EQ(server.cache().size(), 0u);
  // The serialized reply carries the error, not a result.
  EXPECT_NE(reply.to_text().find("\"error\":"), std::string::npos);
}

TEST(Server, ServeTextHandlesObjectsArraysAndGarbage) {
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("text"), &metrics));
  EXPECT_NE(server.serve_text("not json").find("\"error\":"),
            std::string::npos);
  const std::string object_reply = server.serve_text(
      R"({"kind":"evaluate","n":4,"c":2,"workload":"transpose","load":0.01})");
  EXPECT_EQ(object_reply.front(), '{');
  EXPECT_NE(object_reply.find("\"result\":"), std::string::npos);
  // One bad element does not poison the batch: errors are replied in place.
  const std::string array_reply = server.serve_text(
      R"([{"kind":"evaluate","n":4,"c":2,"workload":"transpose","load":0.01},)"
      R"({"kind":"bogus"}])");
  EXPECT_EQ(array_reply.front(), '[');
  EXPECT_NE(array_reply.find("\"result\":"), std::string::npos);
  EXPECT_NE(array_reply.find("\"error\":"), std::string::npos);
}

TEST(Server, AppendsOneLedgerRecordPerRequestWithCacheHit) {
  const std::string dir = fresh_dir("ledger");
  obs::MetricsRegistry metrics;
  ServerOptions options = test_options(dir + "/cache", &metrics);
  options.ledger_path = dir + "/ledger.jsonl";
  Server server(options);
  (void)server.serve_batch(duplicate_solves(2));
  const auto records = obs::read_ledger(options.ledger_path);
  ASSERT_EQ(records.size(), 2u);
  int hits = 0;
  for (const auto& record : records) {
    const obs::Json* hit = record.find("cache_hit");
    ASSERT_NE(hit, nullptr);
    hits += hit->as_bool() ? 1 : 0;
    ASSERT_NE(record.find("subcommand"), nullptr);
    EXPECT_EQ(record.find("subcommand")->as_string(), "svc");
    // The ledger run id is the request id the reply carries.
    EXPECT_EQ(record.find("run_id")->as_string(),
              duplicate_solves(1)[0].id());
  }
  EXPECT_EQ(hits, 1);  // exactly the duplicate occurrence
}

// ------------------------------------------------------------ observability

TEST(Server, EmitsOneLifecycleEventPerRequestWithOutcomes) {
  const std::string dir = fresh_dir("events");
  obs::MetricsRegistry metrics;
  ServerOptions options = test_options(dir + "/cache", &metrics, 2);
  options.events_path = dir + "/server-events.jsonl";
  Server server(options);
  (void)server.serve_batch(duplicate_solves(3));   // miss + 2 batch dups
  (void)server.serve_batch(duplicate_solves(1));   // cache hit
  // Two error replies: a typed execute error (validation rejects the
  // cycle budget) and a poisoned one (the link range check throws a
  // non-Error exception).
  Request no_cycles;
  no_cycles.kind = RequestKind::kSimulate;
  no_cycles.cycles = 0;
  EXPECT_EQ(server.resolve(no_cycles).error_kind, "parse error");
  Request bad_links;
  bad_links.kind = RequestKind::kEvaluate;
  bad_links.links = "1-99";
  EXPECT_EQ(server.resolve(bad_links).error_kind, "poisoned");

  const auto text = util::read_file(options.events_path);
  ASSERT_TRUE(text.has_value());
  std::vector<obs::Json> events;
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto record = obs::Json::parse(line);
    ASSERT_TRUE(record.has_value()) << line;
    events.push_back(std::move(*record));
  }
  ASSERT_EQ(events.size(), 6u);  // exactly one line per request served

  std::map<std::string, long> outcomes;  // "<outcome>/<ok>" -> lines
  std::map<std::string, long> kinds;
  for (const obs::Json& event : events) {
    // svc-events/1 contract: every record carries the full field set.
    ASSERT_NE(event.find("schema"), nullptr);
    EXPECT_EQ(event.find("schema")->as_string(), kEventsSchema);
    for (const char* key : {"request_id", "kind", "outcome", "ok",
                            "cache_corrupt", "received_s", "queue_wait_ns",
                            "execute_ns", "end_to_end_ns"})
      ASSERT_NE(event.find(key), nullptr) << key;
    ++outcomes[event.find("outcome")->as_string() +
               (event.find("ok")->as_bool() ? "/ok" : "/error")];
    ++kinds[event.find("kind")->as_string()];
  }
  EXPECT_EQ(outcomes["miss/ok"], 1);
  EXPECT_EQ(outcomes["miss/error"], 1);
  EXPECT_EQ(outcomes["poisoned/error"], 1);
  EXPECT_EQ(outcomes["batch/ok"], 2);
  EXPECT_EQ(outcomes["cache/ok"], 1);

  // The events log and the registry are written by the one counting site,
  // so every counter equals its matching outcome / ok lines.
  EXPECT_EQ(metrics.counter("svc.requests"),
            static_cast<long>(events.size()));
  EXPECT_EQ(metrics.counter("svc.batch.hits"),
            outcomes["batch/ok"] + outcomes["batch/error"]);
  EXPECT_EQ(metrics.counter("svc.inflight.hits"),
            outcomes["inflight/ok"] + outcomes["inflight/error"]);
  EXPECT_EQ(metrics.counter("svc.cache.hits"), outcomes["cache/ok"]);
  EXPECT_EQ(metrics.counter("svc.executed"), outcomes["miss/ok"]);
  EXPECT_EQ(metrics.counter("svc.errors"),
            outcomes["miss/error"] + outcomes["poisoned/error"]);
  EXPECT_EQ(metrics.counter("svc.requests.poisoned"),
            outcomes["poisoned/error"]);
  for (const char* kind : {"solve", "evaluate", "simulate"})
    EXPECT_EQ(metrics.counter(std::string("svc.kind.") + kind), kinds[kind])
        << kind;
  EXPECT_EQ(kinds["solve"], 4);
  EXPECT_EQ(kinds["evaluate"], 1);
  EXPECT_EQ(kinds["simulate"], 1);
}

TEST(Server, StatsSnapshotIsConsistentWithServedRequests) {
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("stats"), &metrics, 2));
  (void)server.serve_batch(duplicate_solves(3));
  (void)server.serve_batch(duplicate_solves(1));

  const obs::Json snapshot = server.stats_snapshot();
  ASSERT_NE(snapshot.find("latency"), nullptr);
  const obs::Json* e2e = snapshot.find("latency")->find("end_to_end");
  ASSERT_NE(e2e, nullptr);
  // The core invariant: exactly one end-to-end sample per request served,
  // whatever the dedup outcome.
  EXPECT_EQ(static_cast<long>(e2e->find("count")->as_number()),
            server.requests_served());
  EXPECT_EQ(static_cast<long>(
                snapshot.find("requests_served")->as_number()),
            4);
  EXPECT_EQ(static_cast<long>(
                snapshot.find("kinds")->find("solve")->as_number()),
            4);
  const obs::Json* dedup = snapshot.find("dedup");
  ASSERT_NE(dedup, nullptr);
  EXPECT_EQ(static_cast<long>(dedup->find("executed")->as_number()), 1);
  EXPECT_EQ(static_cast<long>(dedup->find("batch_hits")->as_number()), 2);
  EXPECT_EQ(static_cast<long>(dedup->find("cache_hits")->as_number()), 1);
  EXPECT_DOUBLE_EQ(dedup->find("hit_rate")->as_number(), 0.75);
  // Execution histogram counts only real executions.
  EXPECT_EQ(static_cast<long>(snapshot.find("latency")
                                  ->find("execute")
                                  ->find("count")
                                  ->as_number()),
            1);
}

TEST(Server, CountersAreKeptWithObserveOff) {
  obs::MetricsRegistry metrics;
  ServerOptions options = test_options(fresh_dir("noobserve"), &metrics, 2);
  options.observe = false;
  Server server(options);
  Request evaluate;
  evaluate.kind = RequestKind::kEvaluate;
  std::vector<Request> batch = duplicate_solves(3);
  batch.push_back(evaluate);
  (void)server.serve_batch(batch);

  // observe only turns off histograms and the series feed: the per-kind
  // and dedup counters still count every request served.
  const obs::Json snapshot = server.stats_snapshot();
  EXPECT_EQ(server.requests_served(), 4);
  EXPECT_EQ(static_cast<long>(
                snapshot.find("kinds")->find("solve")->as_number()),
            3);
  EXPECT_EQ(static_cast<long>(
                snapshot.find("kinds")->find("evaluate")->as_number()),
            1);
  EXPECT_EQ(metrics.counter("svc.kind.solve"), 3);
  EXPECT_EQ(metrics.counter("svc.kind.evaluate"), 1);
  EXPECT_EQ(metrics.counter("svc.requests"), 4);
  EXPECT_EQ(metrics.counter("svc.executed"), 2);
  EXPECT_EQ(metrics.counter("svc.batch.hits"), 2);
  EXPECT_EQ(static_cast<long>(snapshot.find("latency")
                                  ->find("end_to_end")
                                  ->find("count")
                                  ->as_number()),
            0);
}

TEST(Server, StatsRequestIsAnsweredFromMemoryOverBothEntryPoints) {
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("statsreq"), &metrics, 2));
  (void)server.serve_batch(duplicate_solves(2));
  const long executed_before = metrics.counter("svc.executed");
  const long served_before = server.requests_served();

  // Object document (what `xlp top` sends over the socket transport).
  const std::string reply_text = server.serve_text(stats_request_text());
  const auto reply = obs::Json::parse(reply_text);
  ASSERT_TRUE(reply.has_value());
  const obs::Json* result = reply->find("result");
  ASSERT_NE(result, nullptr) << reply_text;
  EXPECT_EQ(result->find("kind")->as_string(), "stats");
  EXPECT_EQ(static_cast<long>(result->find("requests_served")->as_number()),
            served_before);

  // Inside a batch: the stats element is answered in place while the rest
  // of the batch is served normally.
  Request probe;
  probe.kind = RequestKind::kStats;
  std::vector<Request> batch = duplicate_solves(1);
  batch.push_back(probe);
  const auto replies = server.serve_batch(batch);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[1].ok);
  EXPECT_NE(replies[1].payload_text.find("\"kind\":\"stats\""),
            std::string::npos);

  // Stats probes never execute, never count as served, never enter the
  // latency histograms — only the solve in the second batch did.
  EXPECT_EQ(metrics.counter("svc.executed"), executed_before);
  EXPECT_EQ(server.requests_served(), served_before + 1);
  EXPECT_EQ(metrics.counter("svc.stats"), 2);
  const obs::Json snapshot = server.stats_snapshot();
  EXPECT_EQ(static_cast<long>(snapshot.find("latency")
                                  ->find("end_to_end")
                                  ->find("count")
                                  ->as_number()),
            server.requests_served());
}

// ------------------------------------------------------------------- client

TEST(Client, SweepBatchCoversFeasibleLimitsOnly) {
  const auto batch = sweep_batch(8, "dcsa", 500, 1);
  ASSERT_FALSE(batch.empty());
  for (const auto& request : batch) {
    EXPECT_EQ(request.kind, RequestKind::kSolve);
    EXPECT_EQ(256 % request.link_limit, 0);
    EXPECT_NO_THROW(request.validate());
  }
}

TEST(Client, QueueRoundTripThroughServer) {
  const std::string root = fresh_dir("queue");
  const std::string queue_dir = root + "/q";
  obs::MetricsRegistry metrics;
  ServerOptions options = test_options(root + "/cache", &metrics);
  Server server(options);

  const auto batch = sweep_batch(4, "dcsa", 200, 1);
  ASSERT_TRUE(queue_submit(queue_dir, "job1", batch_to_text(batch)));
  EXPECT_EQ(server.run_queue(queue_dir, /*once=*/true, 0.01), 1);
  const std::string reply = queue_wait(queue_dir, "job1", 5.0);
  EXPECT_NE(reply.find("\"result\":"), std::string::npos);
  EXPECT_EQ(reply.find("\"error\":"), std::string::npos);
  // The submission was consumed and the reply removed by queue_wait.
  EXPECT_FALSE(fs::exists(fs::path(queue_dir) / "inbox" / "job1.json"));
  EXPECT_FALSE(fs::exists(fs::path(queue_dir) / "outbox" / "job1.json"));
}

TEST(Client, QueueWaitTimeoutNamesRequestAndInboxState) {
  const std::string root = fresh_dir("queue_timeout");
  const std::string queue_dir = root + "/q";
  ASSERT_TRUE(queue_submit(queue_dir, "stuck", "[]"));
  // No server running: the timeout error must say which request timed out
  // and that the submission is still sitting in the inbox.
  try {
    (void)queue_wait(queue_dir, "stuck", 0.05);
    FAIL() << "queue_wait should have thrown on timeout";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kState);
    const std::string what = error.what();
    EXPECT_NE(what.find("stuck"), std::string::npos) << what;
    EXPECT_NE(what.find("waited"), std::string::npos) << what;
    EXPECT_NE(what.find("still in inbox"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace xlp::svc
