// Tests of the placement service: canonical JSON / content hashing shared
// with the run ledger, the request model's kind-restricted identity, the
// persisted LRU result cache, and the batch server's dedup + determinism
// contract (identical requests -> byte-identical replies at any thread
// count, exactly one execution).

#include <gtest/gtest.h>

#include <algorithm>
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
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "runctl/control.hpp"
#include "svc/cache.hpp"
#include "svc/chaos.hpp"
#include "svc/client.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/matrix.hpp"
#include "traffic/patterns.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
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

TEST(Request, IntegerFieldsAreExactOrAParseError) {
  // Each of these used to wrap or round onto a valid request (n = 2^32 + 8
  // and n = 8.4 both hashed as the default n = 8 evaluate request);
  // "height" is no request field at all.
  for (const char* text :
       {R"({"kind":"evaluate","n":4294967304})",
        R"({"kind":"evaluate","n":8.4})", R"({"kind":"solve","moves":1e300})",
        R"({"kind":"solve","c":4.5})",
        R"({"kind":"simulate","vcs":4294967300})",
        R"({"kind":"simulate","cycles":-1e300})",
        R"({"kind":"solve","n":8,"height":8})"}) {
    const auto doc = obs::Json::parse(text);
    ASSERT_TRUE(doc.has_value()) << text;
    try {
      (void)Request::from_json(*doc);
      ADD_FAILURE() << "accepted " << text;
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kParse) << text;
    }
  }
  // An integral value spelled as a double is that integer.
  const auto spelled = obs::Json::parse(R"({"kind":"evaluate","n":8.0})");
  ASSERT_TRUE(spelled.has_value());
  EXPECT_EQ(Request::from_json(*spelled).id(), "73e294c6e35ed59a");
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

TEST(Request, DenseDemandKindsStopAt64) {
  // simulate and appspec build the dense (n^2)^2 demand matrix, so they
  // stop at n = 64; evaluate streams its demand row by row and keeps the
  // whole [2, 256] range.
  for (const RequestKind kind :
       {RequestKind::kSimulate, RequestKind::kAppspec}) {
    Request request;
    request.kind = kind;
    request.n = traffic::kDenseDemandMaxSide;
    EXPECT_NO_THROW(request.validate()) << to_string(kind);
    request.n = traffic::kDenseDemandMaxSide + 1;
    try {
      request.validate();
      ADD_FAILURE() << to_string(kind) << " accepted n = 65";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << e.what();
    }
  }
  Request evaluate;
  evaluate.kind = RequestKind::kEvaluate;
  evaluate.n = 256;
  EXPECT_NO_THROW(evaluate.validate());
  evaluate.n = 257;
  EXPECT_THROW(evaluate.validate(), Error);
  // Past the dense cap an evaluate still runs, without the matrix.
  evaluate.n = traffic::kDenseDemandMaxSide + 1;
  const obs::Json payload = execute_request(evaluate, nullptr);
  ASSERT_NE(payload.find("total"), nullptr);
  EXPECT_GT(payload.find("total")->as_number(), 0.0);
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

TEST(Request, SweepIdKeepsOnlyTheFieldsASweepReads) {
  Request sweep;
  sweep.kind = RequestKind::kSweep;
  EXPECT_EQ(sweep.to_json().dump(),
            R"({"schema":"xlp-request/1","kind":"sweep","n":8,"b":256,)"
            R"("method":"dcsa","moves":10000,"seed":1})");
  EXPECT_EQ(Request::from_json(sweep.to_json()).id(), sweep.id());
  EXPECT_NE(sweep.id(), Request{}.id());
  // A sweep enumerates C and runs one chain per C, so neither (nor any
  // traffic field) reaches its id; c = 3 need not divide b either.
  Request ignored = sweep;
  ignored.link_limit = 3;
  ignored.chains = 4;
  ignored.load = 0.5;
  ignored.links = "0-2";
  EXPECT_EQ(ignored.id(), sweep.id());
  EXPECT_NO_THROW(ignored.validate());
  // Moves only matter where annealing does.
  Request dnc = sweep;
  dnc.method = "dnc";
  Request dnc_moves = dnc;
  dnc_moves.moves = 5;
  EXPECT_EQ(dnc.id(), dnc_moves.id());
  EXPECT_EQ(dnc.to_json().find("moves"), nullptr);
}

/// Whether validate() rejects a default request of `kind` after `edit`,
/// as a parse error.
bool rejects(RequestKind kind, void (*edit)(Request&)) {
  Request request;
  request.kind = kind;
  edit(request);
  try {
    request.validate();
  } catch (const Error& e) {
    return e.code() == ErrorCode::kParse;
  }
  return false;
}

/// Out-of-range values of the fields a sweep reads.
const std::vector<void (*)(Request&)> kBadSweepFields = {
    [](Request& r) { r.n = 1; },
    [](Request& r) { r.n = 300; },
    [](Request& r) { r.base_flit_bits = 0; },
    [](Request& r) { r.method = "bogus"; },
    [](Request& r) { r.moves = -5; },
    [](Request& r) { r.seed = (1ULL << 53) + 1; }};

TEST(Request, SweepValidatesEverythingButC) {
  for (const auto edit : kBadSweepFields)
    EXPECT_TRUE(rejects(RequestKind::kSweep, edit));
  EXPECT_FALSE(
      rejects(RequestKind::kSweep, [](Request& r) { r.link_limit = 0; }));
}

TEST(Request, SweepCoversFeasibleLimitsOnly) {
  // Of n = 8's limits 1, 2, 4, 8 and 16 only 1, 2 and 4 keep a 12-bit
  // flit an integer number of bits.
  Request sweep;
  sweep.kind = RequestKind::kSweep;
  sweep.moves = 200;
  sweep.base_flit_bits = 12;
  const obs::Json payload = execute_request(sweep, nullptr);
  const obs::Json& points = *payload.find("points");
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points.at(i).find("c")->as_int(), 1 << i);
    EXPECT_EQ(points.at(i).find("flit_bits")->as_int(), 12 >> i);
  }
}

TEST(Request, StoppedSweepIsNeverAPayload) {
  runctl::CancelToken token;
  ASSERT_TRUE(token.request(runctl::RunStatus::kInterrupted));
  runctl::RunControl control(&token);
  Request sweep;
  sweep.kind = RequestKind::kSweep;
  try {
    (void)execute_request(sweep, &control);
    FAIL() << "a stopped sweep returned a payload";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kState);
  }
}

TEST(Request, AppspecIdKeepsOnlyTheFieldsItReads) {
  Request appspec;
  appspec.kind = RequestKind::kAppspec;
  EXPECT_EQ(appspec.to_json().dump(),
            R"({"schema":"xlp-request/1","kind":"appspec","n":8,"b":256,)"
            R"("method":"dcsa","moves":10000,"workload":"uniform_random",)"
            R"("load":0.02,"seed":1})");
  EXPECT_EQ(Request::from_json(appspec.to_json()).id(), appspec.id());
  // It visits every feasible C itself, solves one chain per row and
  // column, and simulates nothing.
  Request ignored = appspec;
  ignored.link_limit = 3;
  ignored.links = "0-2";
  ignored.cycles = 50;
  ignored.chains = 4;
  ignored.routing = "yx";
  ignored.contention_per_hop = 1.0;
  EXPECT_EQ(ignored.id(), appspec.id());
  EXPECT_NO_THROW(ignored.validate());
  // The demand and the flit width define the design.
  for (void (*edit)(Request&) :
       {+[](Request& r) { r.workload = "canneal"; },
        +[](Request& r) { r.load = 0.5; },
        +[](Request& r) { r.base_flit_bits = 128; }}) {
    Request changed = appspec;
    edit(changed);
    EXPECT_NE(changed.id(), appspec.id());
  }
  // Same fields as a sweep plus its demand: a different kind, a new id.
  Request sweep = appspec;
  sweep.kind = RequestKind::kSweep;
  EXPECT_NE(sweep.id(), appspec.id());
  Request dnc = appspec;
  dnc.method = "dnc";
  EXPECT_EQ(dnc.to_json().find("moves"), nullptr);
}

TEST(Request, AppspecValidatesLikeASweepPlusItsDemand) {
  constexpr RequestKind kAppspec = RequestKind::kAppspec;
  for (const auto edit : kBadSweepFields) EXPECT_TRUE(rejects(kAppspec, edit));
  EXPECT_TRUE(rejects(kAppspec, [](Request& r) { r.workload = "bogus"; }));
  EXPECT_TRUE(rejects(kAppspec, [](Request& r) { r.load = 0.0; }));
  EXPECT_TRUE(rejects(kAppspec, [](Request& r) { r.load = 5.0; }));
  // A PARSEC model has its own rate, but the load is still checked.
  EXPECT_TRUE(rejects(kAppspec, [](Request& r) {
    r.workload = "canneal";
    r.load = -1.0;
  }));
  // Like a sweep it has no c, and it reads no links.
  EXPECT_FALSE(rejects(kAppspec, [](Request& r) { r.link_limit = 0; }));
  EXPECT_FALSE(rejects(kAppspec, [](Request& r) { r.links = "0-99"; }));
  EXPECT_FALSE(rejects(kAppspec, [](Request& r) { r.workload = "canneal"; }));
  const auto doc = obs::Json::parse(R"({"kind":"appspec","n":4,"c":3})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(Request::from_json(*doc).kind, RequestKind::kAppspec);
}

TEST(Request, StoppedAppspecIsNeverAPayload) {
  runctl::CancelToken token;
  ASSERT_TRUE(token.request(runctl::RunStatus::kInterrupted));
  runctl::RunControl control(&token);
  Request appspec;
  appspec.kind = RequestKind::kAppspec;
  EXPECT_NE(svc::appspec(appspec, &control).status,
            runctl::RunStatus::kCompleted);
  try {
    (void)execute_request(appspec, &control);
    FAIL() << "a stopped appspec returned a payload";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kState);
  }
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
                                      wrap_envelope("{\"v\":3}")));
  ResultCache cache(dir, 8, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains("00000000000000ac"));
}

/// Arms the write-delay chaos site (every file write sleeps 1-8 ms) for
/// one test and disarms it on every exit path.
struct WriteDelayGuard {
  WriteDelayGuard() { ChaosPolicy::global().configure("write-delay=1"); }
  ~WriteDelayGuard() { ChaosPolicy::global().disable(); }
};

TEST(ResultCache, GetDoesNotWaitForAnotherIdsPutWrite) {
  // put() publishes its entry in memory and writes the file with the lock
  // released: a get of another id returns while that write is still
  // inside the injected write delay, before its file exists.
  const std::string dir = fresh_dir("put_unlocked");
  ResultCache cache(dir, 64, nullptr);
  const std::string other = "00000000000000b0";
  ASSERT_TRUE(cache.put(other, "{\"v\":0}"));
  const WriteDelayGuard delay;
  // The delay is 1-8 ms. A getter descheduled past it proves nothing, so
  // one of a few attempts must land inside the write.
  bool hit_inside_write = false;
  for (long attempt = 1; attempt <= 20 && !hit_inside_write; ++attempt) {
    const std::string id = "000000000000" + std::to_string(1000 + attempt);
    const fs::path file = fs::path(dir) / (id + ".json");
    std::thread writer([&cache, &id] { EXPECT_TRUE(cache.put(id, "{}")); });
    // The site counts its firing before the sleep: from here on the
    // writer is inside its write.
    while (ChaosPolicy::global().injected(ChaosSite::kWriteDelay) < attempt)
      std::this_thread::yield();
    const auto hit = cache.get(other);
    hit_inside_write = hit.has_value() && !fs::exists(file);
    writer.join();
    EXPECT_TRUE(fs::exists(file)) << "put returns after its file is durable";
  }
  EXPECT_TRUE(hit_inside_write);
}

TEST(ResultCache, EntryEvictedDuringItsWriteLeavesNoFile) {
  // Capacity 1 and two concurrent puts: whichever entry is evicted while
  // its own write is still running must not leave its file behind.
  const std::string dir = fresh_dir("put_evicted");
  const WriteDelayGuard delay;
  ResultCache cache(dir, 1, nullptr);
  std::thread first([&cache] { cache.put("00000000000000c1", "1"); });
  std::thread second([&cache] { cache.put("00000000000000c2", "2"); });
  first.join();
  second.join();
  ASSERT_EQ(cache.size(), 1u);
  const std::string kept =
      cache.contains("00000000000000c1") ? "00000000000000c1"
                                         : "00000000000000c2";
  long files = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".json") ++files;
  EXPECT_EQ(files, 1);
  EXPECT_TRUE(fs::exists(fs::path(dir) / (kept + ".json")));
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
  const auto batch = test::distinct_solves(8, 400, 7);
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

TEST(Server, OneDocumentSubmissionRunsOnTheCallingThread) {
  // A one-request batch starts no pool, even with four workers allowed:
  // the solve grows the caller's own profiler tree, under its scope.
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("inline"), &metrics, 4));
  obs::Profiler::reset();
  obs::Profiler::enable();
  std::string reply;
  {
    const obs::ProfileScope caller("test.caller");
    reply = server.serve_text(
        R"({"kind":"solve","n":8,"c":4,"moves":400,"seed":3})");
  }
  obs::Profiler::disable();
  const obs::ProfileReport report = obs::Profiler::snapshot();
  obs::Profiler::reset();
  EXPECT_NE(reply.find("\"result\":"), std::string::npos) << reply;
  bool annealed_under_caller = false;
  for (const obs::ProfileEntry& entry : report.entries())
    if (entry.path.rfind("test.caller;sa.anneal", 0) == 0)
      annealed_under_caller = true;
  EXPECT_TRUE(annealed_under_caller) << report.to_collapsed();
}

TEST(Server, ResubmittedSweepIsAtLeastTwiceAsFast) {
  // The acceptance scenario: an 8x8 C-sweep submitted twice. It is one
  // sweep request, so the second pass is a single cache hit resolved on
  // the calling thread, with no pool to start; 20000 moves per link limit
  // keep the cold pass far above it.
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("speedup"), &metrics));
  Request sweep;
  sweep.kind = RequestKind::kSweep;
  sweep.moves = 20000;
  const std::vector<Request> batch{sweep};
  Stopwatch cold_timer;
  const auto cold_replies = server.serve_batch(batch);
  const double cold = cold_timer.seconds();
  Stopwatch warm_timer;
  const auto warm_replies = server.serve_batch(batch);
  const double warm = warm_timer.seconds();
  ASSERT_TRUE(cold_replies[0].ok) << cold_replies[0].to_text();
  EXPECT_EQ(metrics.counter("svc.executed"), 1);
  EXPECT_TRUE(warm_replies[0].cache_hit);
  EXPECT_EQ(warm_replies[0].payload_text, cold_replies[0].payload_text);
  EXPECT_GE(cold, 2.0 * warm) << "cold=" << cold << "s warm=" << warm << "s";
}

TEST(Server, SweepRequestServesTheCliSweepsPoints) {
  // `xlp sweep --n 8 --moves 2000 --seed 1` and `xlp submit --sweep-n 8
  // --moves 2000 --seed 1` both run this request: one
  // core::sweep_link_limits on Rng(seed) under the zero-load model.
  const std::string text = R"({"kind":"sweep","n":8,"moves":2000,"seed":1})";
  Request flags;
  flags.kind = RequestKind::kSweep;
  flags.moves = 2000;
  EXPECT_EQ(Request::from_json(*obs::Json::parse(text)).id(), flags.id());

  obs::MetricsRegistry m1, m4;
  Server one(test_options(fresh_dir("sweep_t1"), &m1, 1));
  Server four(test_options(fresh_dir("sweep_t4"), &m4, 4));
  util::set_default_thread_count(1);  // the sweep's own cell pool
  const std::string reply = one.serve_text(text);
  util::set_default_thread_count(4);
  EXPECT_EQ(four.serve_text(text), reply);
  util::set_default_thread_count(0);

  const std::vector<Reply> replies = decode_replies(reply);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(replies[0].ok) << reply;
  EXPECT_EQ(replies[0].request_id, flags.id());
  const obs::Json payload = *obs::Json::parse(replies[0].payload_text);
  EXPECT_EQ(payload.find("best")->as_int(), 4);

  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(2000);
  options.latency = latency::LatencyParams::zero_load();
  Rng rng(1);
  const auto points = core::sweep_link_limits(8, 8, options, rng);
  const obs::Json& served = *payload.find("points");
  ASSERT_EQ(served.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const obs::Json& point = served.at(i);
    EXPECT_EQ(point.find("c")->as_int(), points[i].link_limit);
    EXPECT_EQ(point.find("flit_bits")->as_int(), points[i].design.flit_bits());
    EXPECT_EQ(point.find("total")->as_number(), points[i].breakdown.total());
    EXPECT_EQ(point.find("placement")->as_string(),
              points[i].placement.placement.to_string());
    EXPECT_EQ(point.find("evaluations")->as_long(),
              points[i].placement.evaluations);
  }
  EXPECT_EQ(served.at(2).find("placement")->as_string(),
            "8:[(0,2)(0,4)(1,4)(2,4)(4,6)(4,7)(5,7)]");

  const std::vector<Reply> again = decode_replies(one.serve_text(text));
  EXPECT_TRUE(again[0].cache_hit);
  EXPECT_EQ(again[0].payload_text, replies[0].payload_text);
  EXPECT_EQ(m1.counter("svc.executed"), 1);
  EXPECT_EQ(m1.counter("svc.kind.sweep"), 2);
}

TEST(Server, AppspecRequestServesTheCliDesign) {
  // `xlp appspec --pattern transpose --n 4 --moves 500 --seed 3` runs this
  // request: one core::solve_app_specific on Rng(seed) for the pattern's
  // demand under the zero-load model.
  const std::string text =
      R"({"kind":"appspec","n":4,"moves":500,"workload":"transpose",)"
      R"("seed":3})";
  Request flags;
  flags.kind = RequestKind::kAppspec;
  flags.n = 4;
  flags.moves = 500;
  flags.workload = "transpose";
  flags.seed = 3;
  EXPECT_EQ(Request::from_json(*obs::Json::parse(text)).id(), flags.id());

  obs::MetricsRegistry m1, m4;
  Server one(test_options(fresh_dir("appspec_t1"), &m1, 1));
  Server four(test_options(fresh_dir("appspec_t4"), &m4, 4));
  util::set_default_thread_count(1);
  const std::string reply = one.serve_text(text);
  util::set_default_thread_count(4);
  EXPECT_EQ(four.serve_text(text), reply);
  util::set_default_thread_count(0);

  const std::vector<Reply> replies = decode_replies(reply);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(replies[0].ok) << reply;
  EXPECT_EQ(replies[0].request_id, flags.id());
  const obs::Json payload = *obs::Json::parse(replies[0].payload_text);

  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(500);
  options.latency = latency::LatencyParams::zero_load();
  Rng rng(3);
  const core::AppSpecificResult direct = core::solve_app_specific(
      traffic::TrafficMatrix::from_pattern(traffic::Pattern::kTranspose, 4,
                                           0.02),
      options, rng);
  EXPECT_EQ(payload.find("c")->as_int(), direct.link_limit);
  EXPECT_EQ(payload.find("flit_bits")->as_int(), direct.design.flit_bits());
  EXPECT_EQ(payload.find("total")->as_number(), direct.breakdown.total());
  EXPECT_EQ(payload.find("evaluations")->as_long(), direct.evaluations);
  const obs::Json& rows = *payload.find("rows");
  const obs::Json& cols = *payload.find("cols");
  ASSERT_EQ(rows.size(), 4u);
  ASSERT_EQ(cols.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto at = static_cast<std::size_t>(i);
    EXPECT_EQ(rows.at(at).as_string(), direct.design.row(i).to_string());
    EXPECT_EQ(cols.at(at).as_string(), direct.design.col(i).to_string());
  }

  const std::vector<Reply> again = decode_replies(one.serve_text(text));
  EXPECT_TRUE(again[0].cache_hit);
  EXPECT_EQ(again[0].payload_text, replies[0].payload_text);
  EXPECT_EQ(m1.counter("svc.executed"), 1);
  EXPECT_EQ(m1.counter("svc.kind.appspec"), 2);
  EXPECT_EQ(one.stats_snapshot().find("kinds")->find("appspec")->as_long(),
            2);
}

TEST(Server, FailedRequestsAreNotCached) {
  obs::MetricsRegistry metrics;
  const std::string dir = fresh_dir("errors");
  Server server(test_options(dir, &metrics));
  Request bad;
  bad.kind = RequestKind::kEvaluate;
  bad.links = "1-99";  // 99 is out of range for n=8
  const Reply reply = server.resolve(bad);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(metrics.counter("svc.errors"), 1);
  EXPECT_EQ(server.cache().size(), 0u);
  // The serialized reply carries the error, not a result.
  EXPECT_NE(reply.to_text().find("\"error\":"), std::string::npos);
}

TEST(Server, RequestsWrongInThemselvesAreParseErrorsNotPoisoned) {
  // Requests the design builder or the simulator would reject must fail
  // validation: a precondition thrown at execute time is "poisoned" and
  // retryable, so a client would resend them with backoff.
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("wrong"), &metrics));
  const std::string text = server.serve_text(
      R"([{"kind":"simulate","n":8,"routing":"o1turn","vcs":1},)"
      R"({"kind":"evaluate","n":8,"links":"0-9"},)"
      R"({"kind":"evaluate","n":8,"c":2,"links":"0-2,1-3,0-3"}])");
  const auto doc = obs::Json::parse(text);
  ASSERT_TRUE(doc.has_value() && doc->is_array()) << text;
  ASSERT_EQ(doc->size(), 3u) << text;
  for (std::size_t i = 0; i < doc->size(); ++i) {
    const obs::Json* error = doc->at(i).find("error");
    ASSERT_NE(error, nullptr) << text;
    EXPECT_EQ(error->find("kind")->as_string(), "parse") << text;
    EXPECT_FALSE(error->find("retryable")->as_bool()) << text;
  }

  // The same requests built in process fail the execute path's validate().
  Request o1turn;
  o1turn.kind = RequestKind::kSimulate;
  o1turn.routing = "o1turn";
  o1turn.vcs = 1;
  Request out_of_range;
  out_of_range.kind = RequestKind::kEvaluate;
  out_of_range.links = "0-9";
  Request over_limit;
  over_limit.kind = RequestKind::kEvaluate;
  over_limit.link_limit = 2;
  over_limit.links = "0-2,1-3,0-3";
  for (const Request& request : {o1turn, out_of_range, over_limit}) {
    const Reply reply = server.resolve(request);
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error_kind, "parse") << reply.payload_text;
    EXPECT_FALSE(reply.retryable);
  }
  EXPECT_EQ(metrics.counter("svc.requests.poisoned"), 0);
}

TEST(Server, WorkloadsWithoutDemandAtTheirNAreParseErrors) {
  // A bit permutation needs a power-of-two node count, and tornado at
  // n = 2 sends every node to itself: validation rejects these before
  // the demand generator's precondition would poison the request.
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("unfit"), &metrics));
  std::vector<std::string> docs;
  for (const char* kind : {"evaluate", "simulate"})
    for (const char* workload : {"bit_complement", "bit_reverse", "shuffle"})
      docs.push_back(std::string(R"({"kind":")") + kind +
                     R"(","n":3,"c":2,"workload":")" + workload + R"("})");
  docs.push_back(R"({"kind":"evaluate","n":2,"c":2,"workload":"tornado"})");
  docs.push_back(R"({"kind":"appspec","n":2,"workload":"tornado"})");
  for (const std::string& doc : docs) {
    const std::vector<Reply> replies = decode_replies(server.serve_text(doc));
    ASSERT_EQ(replies.size(), 1u) << doc;
    EXPECT_FALSE(replies[0].ok) << doc;
    EXPECT_EQ(replies[0].error_kind, "parse") << replies[0].payload_text;
    EXPECT_FALSE(replies[0].retryable) << doc;
  }
  EXPECT_EQ(metrics.counter("svc.requests.poisoned"), 0);
  // The same patterns where they have demand are served.
  for (const char* doc :
       {R"({"kind":"evaluate","n":4,"c":2,"workload":"shuffle"})",
        R"({"kind":"evaluate","n":3,"c":2,"workload":"tornado"})"}) {
    const std::vector<Reply> replies = decode_replies(server.serve_text(doc));
    ASSERT_EQ(replies.size(), 1u) << doc;
    EXPECT_TRUE(replies[0].ok) << replies[0].payload_text;
  }
}

TEST(Server, SeedsPastTwoToThe53AreParseErrors) {
  // A request's JSON number is a double: 2^53 + 1 would be served, cached
  // and ledgered as 2^53, so every seed above 2^53 is refused up front.
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("big_seed"), &metrics));
  Request request;
  request.moves = 300;
  request.seed = (std::uint64_t{1} << 53) + 1;
  const Reply reply = server.resolve(request);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error_kind, "parse") << reply.payload_text;
  EXPECT_FALSE(reply.retryable);
  const std::vector<Reply> replies = decode_replies(server.serve_text(
      R"({"kind":"solve","moves":300,"seed":18014398509481984})"));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].error_kind, "parse");
  EXPECT_EQ(server.cache().size(), 0u);

  request.seed = std::uint64_t{1} << 53;  // the largest seed still exact
  EXPECT_NO_THROW(request.validate());
}

TEST(Server, ErrorRepliesCarryTheDocumentedKind) {
  // docs/service.md ("Replies") lists the kinds a client may match on.
  const std::vector<std::string> documented = {
      "parse", "schema", "usage", "io", "version", "state", "internal",
      "poisoned"};
  const std::pair<ErrorCode, const char*> codes[] = {
      {ErrorCode::kUsage, "usage"},   {ErrorCode::kIo, "io"},
      {ErrorCode::kParse, "parse"},   {ErrorCode::kSchema, "schema"},
      {ErrorCode::kVersion, "version"}, {ErrorCode::kState, "state"},
      {ErrorCode::kInternal, "internal"}};
  for (const auto& [code, kind] : codes) {
    Error error(code, "boom");
    error.with_context("serving r1");
    const std::vector<Reply> replies =
        decode_replies(error_reply(error, "r1").to_text());
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].error_kind, kind);
    EXPECT_NE(std::find(documented.begin(), documented.end(),
                        replies[0].error_kind),
              documented.end());
    // The kind is not repeated as a message prefix.
    EXPECT_EQ(replies[0].payload_text, "boom (while serving r1)");
    EXPECT_EQ(replies[0].retryable,
              code == ErrorCode::kState || code == ErrorCode::kInternal);
  }
  EXPECT_NE(std::find(documented.begin(), documented.end(), kPoisonedKind),
            documented.end());

  // The server's own rejections take the same names.
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("kinds"), &metrics));
  EXPECT_EQ(decode_replies(server.serve_text("not json"))[0].error_kind,
            "parse");
  EXPECT_EQ(decode_replies(server.serve_text("7"))[0].error_kind, "schema");
  const Reply bad = decode_replies(server.serve_text(R"({"kind":"bogus"})"))[0];
  EXPECT_EQ(bad.error_kind, "parse");
  EXPECT_EQ(bad.payload_text.rfind("kind must be", 0), 0u) << bad.payload_text;
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

TEST(Server, WrappedOrRoundedIntegersAreRejectedNotServed) {
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("exact_ints"), &metrics));
  for (const char* text : {R"({"kind":"evaluate","n":4294967304})",
                           R"({"kind":"evaluate","n":8.4})"}) {
    const std::vector<Reply> replies = decode_replies(server.serve_text(text));
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_FALSE(replies[0].ok) << text;
    EXPECT_EQ(replies[0].error_kind, "parse") << text;
    EXPECT_EQ(replies[0].request_id, "") << text;
  }
  EXPECT_EQ(metrics.counter("svc.requests"), 0);
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

TEST(Server, LedgersOneLifecyclePerRequestWithOutcomes) {
  const std::string dir = fresh_dir("events");
  obs::MetricsRegistry metrics;
  ServerOptions options = test_options(dir + "/cache", &metrics, 2);
  options.ledger_path = dir + "/ledger.jsonl";
  Server server(options);
  (void)server.serve_batch(duplicate_solves(3));   // miss + 2 batch dups
  (void)server.serve_batch(duplicate_solves(1));   // cache hit
  // Two error replies: a typed execute error (validation rejects the
  // cycle budget) and a poisoned one (an injected non-Error exception).
  Request no_cycles;
  no_cycles.kind = RequestKind::kSimulate;
  no_cycles.cycles = 0;
  EXPECT_EQ(server.resolve(no_cycles).error_kind, "parse");
  Request poisoned;
  poisoned.kind = RequestKind::kEvaluate;
  ChaosPolicy::global().configure("worker-throw@1");
  EXPECT_EQ(server.resolve(poisoned).error_kind, "poisoned");
  ChaosPolicy::global().disable();

  const std::vector<obs::Json> records = obs::read_ledger(options.ledger_path);
  ASSERT_EQ(records.size(), 6u);  // exactly one record per request served

  std::map<std::string, long> outcomes;  // "<outcome>/<ok>" -> records
  std::map<std::string, long> kinds;
  for (const obs::Json& record : records) {
    // Every xlpd record carries the full lifecycle field set.
    const obs::Json* lifecycle = record.find("lifecycle");
    ASSERT_NE(lifecycle, nullptr);
    for (const char* key : {"outcome", "cache_corrupt", "received_s",
                            "queue_wait_ns", "execute_ns", "end_to_end_ns"})
      ASSERT_NE(lifecycle->find(key), nullptr) << key;
    EXPECT_FALSE(lifecycle->find("cache_corrupt")->as_bool());
    ++outcomes[lifecycle->find("outcome")->as_string() +
               (record.find("exit_status")->as_long() == 0 ? "/ok"
                                                           : "/error")];
    ++kinds[record.find("params")->find("kind")->as_string()];
  }
  EXPECT_EQ(outcomes["miss/ok"], 1);
  EXPECT_EQ(outcomes["miss/error"], 1);
  EXPECT_EQ(outcomes["poisoned/error"], 1);
  EXPECT_EQ(outcomes["batch/ok"], 2);
  EXPECT_EQ(outcomes["cache/ok"], 1);

  // The ledger and the registry are written by the one counting site, so
  // every counter equals its matching outcome / ok records.
  EXPECT_EQ(metrics.counter("svc.requests"),
            static_cast<long>(records.size()));
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

TEST(Server, SeriesFeedClosesItsWindowOnFlush) {
  obs::MetricsRegistry metrics;
  obs::SeriesRecorder series(64);
  ServerOptions options = test_options(fresh_dir("series"), &metrics, 1);
  options.series = &series;
  options.series_window = 3600.0;  // one window, closed by the flush
  Server server(options);
  Request evaluate;
  evaluate.kind = RequestKind::kEvaluate;
  for (int i = 0; i < 3; ++i) (void)server.resolve(evaluate);
  EXPECT_TRUE(series.sampled("svc.requests_per_sec").empty());

  server.flush_observability();
  for (const char* name : {"svc.requests_per_sec", "svc.cache_hit_rate",
                           "svc.queue_depth", "svc.inflight"})
    EXPECT_EQ(series.sampled(name).size(), 1u) << name;
  // One execution, then two hits.
  EXPECT_DOUBLE_EQ(series.sampled("svc.cache_hit_rate")[0].y, 2.0 / 3.0);
  EXPECT_GT(series.sampled("svc.requests_per_sec")[0].y, 0.0);
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

TEST(Client, QueueRoundTripThroughServer) {
  const std::string root = fresh_dir("queue");
  const std::string queue_dir = root + "/q";
  obs::MetricsRegistry metrics;
  ServerOptions options = test_options(root + "/cache", &metrics);
  Server server(options);

  const auto batch = test::distinct_solves(4, 200, 1);
  ASSERT_TRUE(queue_submit(queue_dir, "job1", test::batch_text(batch)));
  EXPECT_EQ(server.run_queue(queue_dir, /*once=*/true, 0.01), 1);
  const std::string reply = queue_wait(queue_dir, "job1", 5.0);
  EXPECT_NE(reply.find("\"result\":"), std::string::npos);
  EXPECT_EQ(reply.find("\"error\":"), std::string::npos);
  // The submission was consumed and the reply removed by queue_wait.
  EXPECT_FALSE(fs::exists(fs::path(queue_dir) / "inbox" / "job1.json"));
  EXPECT_FALSE(fs::exists(fs::path(queue_dir) / "outbox" / "job1.json"));
}

TEST(Client, QueueServesABareSubmissionButNeverConsumesABareReply) {
  const std::string root = fresh_dir("queue_bare");
  const std::string queue_dir = root + "/q";
  obs::MetricsRegistry metrics;
  Server server(test_options(root + "/cache", &metrics));

  // The inbox is the one reader that takes a bare, hand-written document.
  Request evaluate;
  evaluate.kind = RequestKind::kEvaluate;
  ASSERT_TRUE(util::atomic_write_file(
      (fs::path(queue_dir) / "inbox" / "hand.json").string(),
      evaluate.to_json().dump()));
  EXPECT_EQ(server.run_queue(queue_dir, /*once=*/true, 0.01), 1);
  const std::string reply = queue_wait(queue_dir, "hand", 5.0);
  EXPECT_NE(reply.find("\"result\":"), std::string::npos) << reply;

  // A bare outbox file carries no checksum: queue_wait keeps polling
  // rather than consuming it, and leaves it in place.
  const fs::path bare = fs::path(queue_dir) / "outbox" / "bare.json";
  ASSERT_TRUE(util::atomic_write_file(bare.string(), reply));
  EXPECT_THROW((void)queue_wait(queue_dir, "bare", 0.05), Error);
  EXPECT_TRUE(fs::exists(bare));
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
