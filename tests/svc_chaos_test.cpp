// Chaos suite for the hardened service layer (docs/service.md, "Failure
// modes and chaos testing"): deterministic fault injection through
// svc::ChaosPolicy, the xlp-envelope/1 integrity envelope, cache
// quarantine, poison-request isolation, and the client retry/backoff path.
//
// The injection sites fire nondeterministically across threads, so the
// end-to-end tests assert *invariants*, not schedules: every request is
// eventually answered, no reply payload ever differs from the chaos-free
// baseline (the byte-identity contract survives injected corruption), and
// every quarantined entry is accounted by the svc.cache.corrupt counter.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runctl/control.hpp"
#include "svc/cache.hpp"
#include "svc/chaos.hpp"
#include "svc/client.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace xlp::svc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "xlp_chaos_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Arms the process-global policy for one test and guarantees it is
/// disarmed on every exit path, so chaos never leaks into other tests.
struct ChaosGuard {
  explicit ChaosGuard(const std::string& spec) {
    ChaosPolicy::global().configure(spec);
  }
  ~ChaosGuard() { ChaosPolicy::global().disable(); }
};

ServerOptions test_options(const std::string& dir,
                           obs::MetricsRegistry* metrics, int threads = 0) {
  ServerOptions options;
  options.cache_dir = dir;
  options.metrics = metrics;
  options.threads = threads;
  return options;
}

std::size_t count_entries(const fs::path& dir) {
  std::error_code ec;
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    (void)entry;
    ++count;
  }
  return count;
}

// ------------------------------------------------------------- ChaosPolicy

TEST(ChaosPolicy, FireSequenceIsDeterministicUnderSeed) {
  ChaosPolicy a, b;
  a.configure("seed=9,cache-flip=0.3");
  b.configure("seed=9,cache-flip=0.3");
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    const bool fa = a.should(ChaosSite::kCacheFlip);
    EXPECT_EQ(fa, b.should(ChaosSite::kCacheFlip)) << "check " << i;
    fired += fa ? 1 : 0;
  }
  EXPECT_EQ(a.injected(ChaosSite::kCacheFlip), fired);
  // p=0.3 over 200 checks: some but not all fire.
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);
  // A different seed draws a different sequence (with overwhelming
  // probability over 200 Bernoulli trials).
  ChaosPolicy c;
  c.configure("seed=10,cache-flip=0.3");
  int agreements = 0;
  ChaosPolicy a2;
  a2.configure("seed=9,cache-flip=0.3");
  for (int i = 0; i < 200; ++i)
    agreements +=
        a2.should(ChaosSite::kCacheFlip) == c.should(ChaosSite::kCacheFlip)
            ? 1
            : 0;
  EXPECT_LT(agreements, 200);
}

TEST(ChaosPolicy, ScheduledTriggerFiresExactlyOnNthCheck) {
  ChaosPolicy policy;
  policy.configure("worker-throw@3");
  EXPECT_TRUE(policy.enabled());
  for (int check = 1; check <= 6; ++check)
    EXPECT_EQ(policy.should(ChaosSite::kWorkerThrow), check == 3)
        << "check " << check;
  EXPECT_EQ(policy.injected(ChaosSite::kWorkerThrow), 1);
  EXPECT_EQ(policy.total_injected(), 1);
}

TEST(ChaosPolicy, MalformedSpecThrowsAndLeavesPolicyUntouched) {
  ChaosPolicy policy;
  policy.configure("cache-flip=0.5");
  EXPECT_TRUE(policy.enabled());
  EXPECT_THROW(policy.configure("bogus-site=0.5"), Error);
  EXPECT_THROW(policy.configure("cache-flip=2.0"), Error);
  EXPECT_THROW(policy.configure("cache-flip=abc"), Error);
  EXPECT_THROW(policy.configure("worker-throw@0"), Error);
  EXPECT_THROW(policy.configure("cache-flip"), Error);
  EXPECT_TRUE(policy.enabled());  // the armed spec survived every reject
  policy.configure("");
  EXPECT_FALSE(policy.enabled());
}

// ---------------------------------------------------------------- envelope

TEST(Envelope, RoundTripsExactBytes) {
  const std::string payload =
      "{\"v\":1,\"text\":\"quote \\\" backslash \\\\ newline \\n\"}";
  const std::string wrapped = wrap_envelope(payload);
  std::string out;
  EXPECT_EQ(unwrap_envelope(wrapped, &out), EnvelopeStatus::kOk);
  EXPECT_EQ(out, payload);  // byte-exact, escaping round-tripped
}

TEST(Envelope, DetectsEveryCorruptionShape) {
  const std::string wrapped = wrap_envelope("{\"v\":2}");
  std::string out;
  std::string reason;

  std::string truncated = wrapped.substr(0, wrapped.size() / 2);
  EXPECT_EQ(unwrap_envelope(truncated, &out, &reason),
            EnvelopeStatus::kCorrupt);

  std::string flipped = wrapped;
  // The payload field comes last, so rfind lands on the payload's digit
  // (the checksum hex could contain a '2' too).
  flipped[wrapped.rfind('2')] = '3';  // corrupt one payload byte
  EXPECT_EQ(unwrap_envelope(flipped, &out, &reason),
            EnvelopeStatus::kCorrupt);
  EXPECT_EQ(reason, "checksum mismatch");

  EXPECT_EQ(unwrap_envelope("", &out, &reason), EnvelopeStatus::kCorrupt);
  EXPECT_EQ(unwrap_envelope(
                R"({"schema":"xlp-envelope/1","payload":"{}"})", &out,
                &reason),
            EnvelopeStatus::kCorrupt);
  EXPECT_EQ(reason, "missing checksum field");

  // Well-formed JSON of another shape is reported apart from corruption:
  // the queue inbox accepts such a bare document, every other reader
  // rejects it.
  EXPECT_EQ(unwrap_envelope("{\"v\":2}", &out, &reason),
            EnvelopeStatus::kNotEnvelope);
  EXPECT_EQ(unwrap_envelope("[1,2]", &out, &reason),
            EnvelopeStatus::kNotEnvelope);
}

// ------------------------------------------------- cache corruption corpus

TEST(CacheQuarantine, RescanQuarantinesEveryCorruptionShape) {
  const std::string dir = fresh_dir("corpus");
  fs::create_directories(dir);
  // The corpus: truncated JSON, flipped payload byte, missing checksum
  // field, zero-length file, a directory squatting on an entry name, and
  // a bare document with no envelope (and so no checksum) at all.
  const std::string wrapped = wrap_envelope("{\"v\":1}");
  ASSERT_TRUE(util::atomic_write_file(
      dir + "/00000000000000c1.json", wrapped.substr(0, wrapped.size() / 2)));
  std::string flipped = wrapped;
  flipped[wrapped.rfind('1')] = '9';  // payload byte (the last field)
  ASSERT_TRUE(util::atomic_write_file(dir + "/00000000000000c2.json",
                                      flipped));
  ASSERT_TRUE(util::atomic_write_file(
      dir + "/00000000000000c3.json",
      R"({"schema":"xlp-envelope/1","payload":"{}"})"));
  ASSERT_TRUE(util::atomic_write_file(dir + "/00000000000000c4.json", ""));
  fs::create_directories(dir + "/00000000000000c5.json");
  ASSERT_TRUE(util::atomic_write_file(dir + "/00000000000000c7.json",
                                      R"({"kind":"solve","value":0})"));
  // One healthy entry proves the rescan separates wheat from chaff.
  ASSERT_TRUE(util::atomic_write_file(dir + "/00000000000000c6.json",
                                      wrap_envelope("{\"v\":6}")));

  obs::MetricsRegistry metrics;
  ResultCache cache(dir, 8, &metrics);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains("00000000000000c6"));
  EXPECT_EQ(metrics.counter("svc.cache.corrupt"), 6);
  EXPECT_EQ(count_entries(fs::path(dir) / "quarantine"), 6u);
  // None of the corrupt names survived in the live directory...
  for (const char* name : {"00000000000000c1", "00000000000000c2",
                           "00000000000000c3", "00000000000000c4",
                           "00000000000000c5", "00000000000000c7"}) {
    EXPECT_FALSE(cache.contains(name)) << name;
    EXPECT_FALSE(fs::exists(fs::path(dir) / (std::string(name) + ".json")))
        << name;
  }
  // ...and each id recomputes cleanly: never served corrupt, never stuck.
  EXPECT_TRUE(cache.put("00000000000000c2", "{\"v\":2}"));
  const auto recomputed = cache.get("00000000000000c2");
  ASSERT_TRUE(recomputed.has_value());
  EXPECT_EQ(*recomputed, "{\"v\":2}");
}

TEST(CacheQuarantine, InjectedReadCorruptionQuarantinesAndMisses) {
  const std::string dir = fresh_dir("readflip");
  obs::MetricsRegistry metrics;
  ResultCache cache(dir, 8, &metrics);
  const std::string id = "00000000000000d1";
  ASSERT_TRUE(cache.put(id, "{\"v\":7}"));

  ChaosGuard guard("seed=5,cache-flip@1");
  bool corrupted = false;
  EXPECT_FALSE(cache.get(id, &corrupted).has_value());
  EXPECT_TRUE(corrupted);
  EXPECT_EQ(metrics.counter("svc.cache.corrupt"), 1);
  EXPECT_EQ(count_entries(fs::path(dir) / "quarantine"), 1u);
  EXPECT_FALSE(cache.contains(id));

  // The transparent-recompute path: a fresh put serves clean bytes again
  // (the one-shot trigger is consumed, so this get verifies fine).
  ASSERT_TRUE(cache.put(id, "{\"v\":7}"));
  corrupted = false;
  const auto again = cache.get(id, &corrupted);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(corrupted);
  EXPECT_EQ(*again, "{\"v\":7}");
}

TEST(CacheQuarantine, MemoryOnlyCorruptEntryStillLeavesAQuarantineFile) {
  const std::string dir = fresh_dir("memonly");
  obs::MetricsRegistry metrics;
  ResultCache cache(dir, 8, &metrics);
  const std::string id = "00000000000000d2";
  {
    // write-fail@1 makes the put memory-only: no disk file exists.
    ChaosGuard guard("write-fail@1");
    EXPECT_FALSE(cache.put(id, "{\"v\":8}"));
  }
  EXPECT_FALSE(fs::exists(fs::path(dir) / (id + ".json")));
  {
    ChaosGuard guard("seed=2,cache-truncate@1");
    bool corrupted = false;
    EXPECT_FALSE(cache.get(id, &corrupted).has_value());
    EXPECT_TRUE(corrupted);
  }
  // Every svc.cache.corrupt increment has a matching quarantine file,
  // even when the live entry never reached disk.
  EXPECT_EQ(metrics.counter("svc.cache.corrupt"), 1);
  EXPECT_EQ(count_entries(fs::path(dir) / "quarantine"), 1u);
}

// --------------------------------------------------------- retry / backoff

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndJittered) {
  RetryPolicy a;
  a.seed = 42;
  RetryPolicy b;
  b.seed = 42;
  for (int attempt = 1; attempt <= 8; ++attempt)
    EXPECT_DOUBLE_EQ(a.backoff_ms(attempt), b.backoff_ms(attempt));
  // Exponential envelope with jitter in [0.5, 1.0): attempt k's delay is
  // within [exp/2, exp) where exp = min(max_ms, base_ms * 2^(k-1)).
  EXPECT_GE(a.backoff_ms(1), 25.0);
  EXPECT_LT(a.backoff_ms(1), 50.0);
  EXPECT_GE(a.backoff_ms(3), 100.0);
  EXPECT_LT(a.backoff_ms(3), 200.0);
  EXPECT_LE(a.backoff_ms(12), a.max_ms);
  RetryPolicy c;
  c.seed = 43;
  EXPECT_NE(a.backoff_ms(1), c.backoff_ms(1));
}

TEST(RetryPolicy, RetryableErrorRepliesAreRecognized) {
  Reply result;
  result.request_id = "00000000000000e1";
  result.payload_text = R"({"v":1})";
  Reply poisoned;
  poisoned.ok = false;
  poisoned.error_kind = "poisoned";
  poisoned.retryable = true;
  poisoned.payload_text = "x";
  Reply malformed = poisoned;
  malformed.error_kind = "parse";
  malformed.retryable = false;

  EXPECT_TRUE(reply_has_retryable_error(poisoned.to_text()));
  EXPECT_FALSE(reply_has_retryable_error(malformed.to_text()));
  EXPECT_FALSE(reply_has_retryable_error(result.to_text()));
  EXPECT_TRUE(reply_has_retryable_error("[" + result.to_text() + "," +
                                        poisoned.to_text() + "]"));
  EXPECT_FALSE(reply_has_retryable_error("not json"));
  // Only an xlp-reply/1 document decodes: a bare error object or a
  // string-shaped error carries no retry signal.
  EXPECT_FALSE(reply_has_retryable_error(
      R"({"error":{"kind":"poisoned","retryable":true,"message":"x"}})"));
  EXPECT_FALSE(reply_has_retryable_error(
      R"({"schema":"xlp-reply/1","request_id":"","cache_hit":false,)"
      R"("error":"boom"})"));
}

TEST(Reply, DecodeRoundTripsToText) {
  Reply hit;
  hit.request_id = "00000000000000e2";
  hit.cache_hit = true;
  hit.payload_text = R"({"kind":"solve","value":12.5})";
  Reply failed;
  failed.request_id = "00000000000000e3";
  failed.ok = false;
  failed.error_kind = "state";
  failed.retryable = true;
  failed.payload_text = "stopped \"early\"";

  const auto decoded =
      decode_replies("[" + hit.to_text() + "," + failed.to_text() + "]");
  ASSERT_EQ(decoded.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const Reply& expected = i == 0 ? hit : failed;
    EXPECT_EQ(decoded[i].to_text(), expected.to_text());
  }
  ASSERT_EQ(decode_replies(hit.to_text()).size(), 1u);

  EXPECT_THROW((void)decode_replies("{\"schema\""), Error);
  EXPECT_THROW((void)decode_replies(R"({"schema":"xlp-reply/2"})"), Error);
  const std::string no_result_or_error =
      R"({"schema":"xlp-reply/1","request_id":"","cache_hit":false})";
  EXPECT_THROW((void)decode_replies(no_result_or_error), Error);
}

// --------------------------------------------------------------- poisoning

TEST(PoisonIsolation, OneExplodingRequestYieldsStructuredErrorOnly) {
  obs::MetricsRegistry metrics;
  Server server(test_options(fresh_dir("poison"), &metrics, 1));

  Request a;
  a.kind = RequestKind::kSolve;
  a.n = 8;
  a.link_limit = 4;
  a.moves = 200;
  a.seed = 1;
  Request b = a;
  b.seed = 2;

  // One worker thread serves the batch in submission order, so the @1
  // trigger poisons exactly the first unique request.
  ChaosGuard guard("worker-throw@1");
  const auto replies = server.serve_batch({a, b});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_EQ(replies[0].error_kind, "poisoned");
  EXPECT_TRUE(replies[0].retryable);
  EXPECT_TRUE(replies[1].ok) << "the batch must keep serving";
  EXPECT_EQ(metrics.counter("svc.requests.poisoned"), 1);
  // Structured error reply: kind + retryable + message, not a bare string.
  const std::string text = replies[0].to_text();
  EXPECT_NE(text.find("\"error\":{\"kind\":\"poisoned\",\"retryable\":true"),
            std::string::npos)
      << text;
  // Poisoned executions are never cached; the resubmission succeeds (the
  // one-shot trigger is consumed) — the client retry loop's contract.
  const Reply retried = server.resolve(a);
  EXPECT_TRUE(retried.ok);
  EXPECT_FALSE(retried.cache_hit);

  const obs::Json snapshot = server.stats_snapshot();
  ASSERT_NE(snapshot.find("dedup"), nullptr);
  EXPECT_EQ(static_cast<long>(
                snapshot.find("dedup")->find("poisoned")->as_number()),
            1);
  ASSERT_NE(snapshot.find("chaos"), nullptr);
  EXPECT_EQ(static_cast<long>(
                snapshot.find("chaos")->find("total")->as_number()),
            1);
}

// ------------------------------------------------------------------- queue

TEST(QueueChaos, TornReplyIsRetriedNextPassAndClientConverges) {
  const std::string root = fresh_dir("torn");
  const std::string queue_dir = root + "/q";
  obs::MetricsRegistry metrics;
  Server server(test_options(root + "/cache", &metrics));
  ASSERT_TRUE(queue_submit(
      queue_dir, "job", test::batch_text(test::distinct_solves(4, 200, 1))));

  ChaosGuard guard("seed=4,queue-partial@1");
  // First pass: the reply is torn by a non-atomic half-write and the
  // submission is kept — served count stays 0.
  EXPECT_EQ(server.run_queue(queue_dir, /*once=*/true, 0.01), 0);
  const fs::path reply_path = fs::path(queue_dir) / "outbox" / "job.json";
  ASSERT_TRUE(fs::exists(reply_path));
  const auto torn = util::read_file(reply_path.string());
  ASSERT_TRUE(torn.has_value());
  std::string payload;
  EXPECT_EQ(unwrap_envelope(*torn, &payload), EnvelopeStatus::kCorrupt)
      << "the torn file must fail the envelope check, never be consumed";
  EXPECT_TRUE(fs::exists(fs::path(queue_dir) / "inbox" / "job.json"));

  // Second pass rewrites the reply atomically; the polling client gets
  // the complete document.
  EXPECT_EQ(server.run_queue(queue_dir, /*once=*/true, 0.01), 1);
  const std::string reply = queue_wait(queue_dir, "job", 5.0);
  EXPECT_NE(reply.find("\"result\":"), std::string::npos);
}

TEST(QueueChaos, CorruptSubmissionIsQuarantinedWithAnErrorReply) {
  const std::string root = fresh_dir("badsub");
  const std::string queue_dir = root + "/q";
  obs::MetricsRegistry metrics;
  Server server(test_options(root + "/cache", &metrics));

  std::string bad = wrap_envelope("[]");
  bad[bad.find("\"checksum\":\"") + 12] = 'x';  // break the checksum hex
  ASSERT_TRUE(util::atomic_write_file(
      (fs::path(queue_dir) / "inbox" / "bad.json").string(), bad));

  EXPECT_EQ(server.run_queue(queue_dir, /*once=*/true, 0.01), 1);
  EXPECT_TRUE(fs::exists(fs::path(queue_dir) / "quarantine" / "bad.json"));
  EXPECT_FALSE(fs::exists(fs::path(queue_dir) / "inbox" / "bad.json"));
  EXPECT_EQ(metrics.counter("svc.queue.corrupt"), 1);
  // The submitter is answered, not left polling: a non-retryable
  // structured error reply.
  const std::string reply = queue_wait(queue_dir, "bad", 5.0);
  EXPECT_NE(reply.find("\"kind\":\"parse\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"retryable\":false"), std::string::npos) << reply;
}

// -------------------------------------------------- end-to-end invariants

/// `name` keeps each test's cache dir its own: ctest runs tests as
/// parallel processes.
std::map<std::string, std::string> baseline_payloads(
    const std::vector<Request>& batch, const std::string& name) {
  obs::MetricsRegistry metrics;
  Server baseline(test_options(fresh_dir(name), &metrics, 4));
  std::map<std::string, std::string> payloads;
  for (const Reply& reply : baseline.serve_batch(batch)) {
    EXPECT_TRUE(reply.ok);
    payloads[reply.request_id] = reply.payload_text;
  }
  return payloads;
}

TEST(ChaosEndToEnd, BatchRepliesMatchChaosFreeBaselineUnderInjection) {
  const auto batch = test::distinct_solves(8, 300, 11);
  const auto baseline = baseline_payloads(batch, "baseline1");

  obs::MetricsRegistry metrics;
  const std::string cache_dir = fresh_dir("chaotic");
  Server server(test_options(cache_dir, &metrics, 4));
  // Every cache / write / worker site armed at >= 1%. Frame and queue
  // sites have dedicated transport tests.
  ChaosGuard guard(
      "seed=3,cache-flip=0.05,cache-truncate=0.05,write-fail=0.05,"
      "write-delay=0.02,worker-throw=0.05");

  // Keep resubmitting (modelling a retrying client) until a full batch
  // succeeds — but run at least kMinRounds so the probabilistic sites get
  // enough draws to have certainly fired by the time we assert they did.
  constexpr int kMinRounds = 10;
  bool all_ok = false;
  for (int round = 0; round < 50; ++round) {
    all_ok = true;
    for (const Reply& reply : server.serve_batch(batch)) {
      if (reply.ok) {
        // The headline invariant: a served payload is NEVER a corrupt
        // byte — injected corruption quarantines and recomputes instead.
        const auto expected = baseline.find(reply.request_id);
        ASSERT_NE(expected, baseline.end());
        EXPECT_EQ(reply.payload_text, expected->second)
            << "round " << round << " request " << reply.request_id;
      } else {
        // Under this spec failures are injected, hence retryable — the
        // client's signal to resubmit, which the next round models.
        EXPECT_TRUE(reply.retryable) << reply.to_text();
        all_ok = false;
      }
    }
    if (all_ok && round + 1 >= kMinRounds &&
        ChaosPolicy::global().total_injected() > 0)
      break;
  }
  EXPECT_TRUE(all_ok) << "every request must eventually be answered";
  EXPECT_GT(ChaosPolicy::global().total_injected(), 0)
      << "the spec must actually have exercised the sites";

  // Quarantine exactly accounts every injected cache corruption.
  EXPECT_EQ(static_cast<long>(
                count_entries(fs::path(cache_dir) / "quarantine")),
            metrics.counter("svc.cache.corrupt"));
}

// ------------------------------------------------------------------ socket

TEST(ChaosSocket, RetryingClientSurvivesFrameChaosWithoutSleeps) {
  const auto batch = test::distinct_solves(8, 200, 5);
  const auto baseline = baseline_payloads(batch, "baseline2");

  const std::string socket_path =
      ::testing::TempDir() + "xlp_chaos_sock.sock";
  fs::remove(socket_path);
  runctl::CancelToken cancel;
  obs::MetricsRegistry metrics;
  ServerOptions options = test_options(fresh_dir("sock_cache"), &metrics, 2);
  options.cancel = &cancel;
  Server server(options);

  ChaosGuard guard("seed=13,frame-truncate=0.15,frame-disconnect=0.15");
  std::thread daemon([&server, &socket_path] {
    EXPECT_TRUE(server.run_socket(socket_path));
  });

  {
    // No sleep before connecting: the retry policy absorbs the startup
    // race (ECONNREFUSED until the daemon binds) exactly like `xlp
    // submit` does.
    RetryPolicy policy;
    policy.retries = 12;
    policy.base_ms = 5.0;
    policy.seed = 7;
    SocketClient client(socket_path, policy);
    ASSERT_TRUE(client.ok());

    for (const Request& request : batch) {
      const auto answered =
          client.submit_with_retry(request.to_json().dump());
      ASSERT_TRUE(answered.has_value())
          << "request must eventually be served";
      const auto reply = obs::Json::parse(*answered);
      ASSERT_TRUE(reply.has_value()) << *answered;
      const obs::Json* result = reply->find("result");
      ASSERT_NE(result, nullptr) << *answered;
      const auto expected = obs::Json::parse(baseline.at(request.id()));
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(result->dump(), expected->dump())
          << "served payload differs from the chaos-free baseline";
    }
    // The client scope closes its connection here; the drain below joins
    // workers that would otherwise block reading an open connection.
  }

  cancel.request(runctl::RunStatus::kInterrupted);
  daemon.join();
}

TEST(ChaosSocket, ClientRefusesAReplyFrameOverTheBound) {
  // A hostile peer answers every connection with a length header of
  // 0xFFFFFFFF: the client must refuse the frame before allocating 4 GiB.
  const std::string socket_path =
      ::testing::TempDir() + "xlp_chaos_huge.sock";
  const int listener = listen_unix(socket_path);
  ASSERT_GE(listener, 0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
    (void)!::write(fd, header, sizeof(header));
    // Drain until the client hangs up.
    char sink[256];
    while (::read(fd, sink, sizeof(sink)) > 0) {
    }
    ::close(fd);
  });

  {
    RetryPolicy policy;
    policy.retries = 0;
    SocketClient client(socket_path, policy);
    EXPECT_TRUE(client.ok());
    EXPECT_FALSE(client.submit(stats_request_text()).has_value());
    EXPECT_FALSE(client.ok()) << "the connection is dropped, not reused";
  }
  ::shutdown(listener, SHUT_RDWR);  // frees the peer if nothing connected
  peer.join();
  ::close(listener);
  fs::remove(socket_path);
}

}  // namespace
}  // namespace xlp::svc
