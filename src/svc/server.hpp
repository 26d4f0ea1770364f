#pragma once

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "runctl/control.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"
#include "util/stopwatch.hpp"

namespace xlp::obs {
class MetricsRegistry;
class SeriesRecorder;
}  // namespace xlp::obs

namespace xlp::svc {

/// Schema identifier of serialized replies.
inline constexpr const char* kReplySchema = "xlp-reply/1";

/// Schema identifier of request lifecycle event records
/// (server-events.jsonl): one JSON line per request served, with the
/// dedup outcome and per-stage durations.
inline constexpr const char* kEventsSchema = "svc-events/1";

/// The answer to one request. `payload_text` is the canonical result
/// payload *bytes* (what the cache stores), spliced verbatim into the
/// serialized reply — an executed result and its later cache hits are
/// byte-identical by construction, never re-serialized.
struct Reply {
  std::string request_id;
  bool ok = true;
  /// True when the reply was served without executing: from the persisted
  /// cache, from another request in flight, or as a duplicate within one
  /// batch.
  bool cache_hit = false;
  std::string payload_text;  ///< result JSON, or the error message when !ok
  /// Error taxonomy (!ok only): an error_code_name() — "parse", "schema",
  /// "state", ... — or "poisoned" for a request whose execution escaped
  /// with a non-Error exception.
  std::string error_kind = "internal";
  /// True when resubmitting the identical request can succeed (deadline
  /// stops, injected faults, poisoned executions); false for requests that
  /// are wrong in themselves (parse / schema / usage). Drives the client's
  /// retry loop.
  bool retryable = false;

  /// {"schema":"xlp-reply/1","request_id":...,"cache_hit":...,
  ///  "result":<payload>} — or, instead of "result",
  ///  "error":{"kind":...,"retryable":...,"message":...}.
  [[nodiscard]] std::string to_text() const;
};

struct ServerOptions {
  std::string cache_dir = "xlp-cache";
  std::size_t cache_entries = 4096;
  /// Pool workers for batch serving; 0 = util::default_thread_count().
  int threads = 0;
  /// Per-request wall-clock budget in seconds (0 = unlimited). A request
  /// stopped by its deadline yields an error reply and is never cached.
  double request_time_limit = 0.0;
  /// Process-level stop (SIGINT): checked between queue files and socket
  /// frames, and merged into every per-request RunControl so in-flight
  /// work also drains promptly.
  runctl::CancelToken* cancel = nullptr;
  /// Ledger path ("" disables). One `xlp-ledger/1` record is appended per
  /// request served, with the request's canonical params as the scenario
  /// identity and `cache_hit` recording how it was answered.
  std::string ledger_path;
  obs::MetricsRegistry* metrics = nullptr;  ///< nullptr = global()

  /// Record latency histograms (queue-wait / execution / end-to-end) and
  /// the series feed — the latency data behind `stats` requests. Counters
  /// are kept either way. Off benchmarks the bare hot path
  /// (bench/suites.cpp pins the recording overhead under 1%).
  bool observe = true;
  /// Request lifecycle event log ("" disables): one append-only
  /// `svc-events/1` JSONL record per request served, correlated to the
  /// ledger by request id.
  std::string events_path;
  /// Optional operational time series (svc.requests_per_sec,
  /// svc.cache_hit_rate, svc.queue_depth, svc.inflight), one point per
  /// `series_window`. Not owned; the server serializes its own appends,
  /// but the recorder must not be written concurrently by anyone else.
  obs::SeriesRecorder* series = nullptr;
  double series_window = 1.0;  ///< seconds per series sample window
};

/// The batch query server: resolves requests through a content-addressed
/// result cache, deduplicates identical work (within a batch, across
/// concurrent clients, and across restarts via the persisted cache), and
/// shards execution over a util::ThreadPool.
///
/// Determinism contract: for a given request id the served payload bytes
/// are identical at any thread count, whether executed, deduplicated or
/// replayed from the cache (tests/svc_test.cpp pins this).
///
/// Metrics: svc.requests / svc.executed / svc.errors / svc.inflight.hits /
/// svc.batch.hits / svc.requests.poisoned / svc.kind.{solve,evaluate,
/// simulate} counters, the svc.execute timer, plus the cache's svc.cache.*
/// family. The counters are resolved once at construction and every
/// served request is counted in one place.
class Server {
 public:
  explicit Server(ServerOptions options);

  /// Answers one request: cache hit, wait on an identical in-flight
  /// request (single execute, fan-out reply), or execute + cache. Safe to
  /// call from many threads. Never throws: failures become error replies.
  [[nodiscard]] Reply resolve(const Request& request);

  /// Answers a batch, replies in request order. Duplicate requests within
  /// the batch execute once; the first occurrence carries the executed /
  /// cache-hit flag, every later duplicate is marked cache_hit. Unique
  /// requests run concurrently on the pool.
  [[nodiscard]] std::vector<Reply> serve_batch(
      const std::vector<Request>& requests);

  /// Parses one submission document — a request object or an array of
  /// request objects — and serves it. Malformed documents / elements
  /// produce error replies (request_id "" when the id is unknowable), so
  /// a bad client cannot wedge the queue. Returns the serialized reply
  /// document: an object for an object, an array for an array.
  [[nodiscard]] std::string serve_text(const std::string& text);

  /// File-queue transport: serves every `<dir>/inbox/*.json` submission
  /// (lexicographic order), writing `<dir>/outbox/<same-name>` atomically
  /// before removing the inbox file — a crash between the two replays the
  /// file on restart, and the cache makes the replay cheap. With `once`
  /// the current inbox snapshot is drained and the call returns;
  /// otherwise it polls every `poll_seconds` until the cancel token fires
  /// (the file being served is always finished first). Returns the number
  /// of submission files served.
  long run_queue(const std::string& queue_dir, bool once,
                 double poll_seconds);

  /// Local-socket transport: a SOCK_STREAM AF_UNIX listener at
  /// `socket_path` speaking length-prefixed JSON — each frame is a 4-byte
  /// little-endian byte count followed by one submission document; the
  /// reply comes back in the same framing, one round trip per connection.
  /// Connections are handled by `threads` dedicated client workers, so
  /// concurrent identical requests hit the in-flight dedup path. Returns
  /// when the cancel token fires (accepted connections drain first);
  /// false when the socket could not be created.
  bool run_socket(const std::string& socket_path);

  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] long requests_served() const noexcept;

  /// The live introspection snapshot a `stats` request returns, built
  /// from memory (counters, histograms, gauges) without touching the
  /// executor pool: uptime, per-kind counts, dedup-layer hit rates, cache
  /// occupancy/evictions, worker utilization and the three latency
  /// histograms (queue-wait / execution / end-to-end).
  [[nodiscard]] obs::Json stats_snapshot();

  /// Flushes buffered observability: the partial series window is
  /// appended and the events stream is flushed to disk. Called before a
  /// drained daemon writes its final artifacts, so SIGINT loses nothing.
  void flush_observability();

 private:
  /// How a served request was answered: the one decision every counter,
  /// histogram sample and event line of the request derives from.
  enum class Outcome { kCache, kMiss, kInflight, kBatch, kPoisoned };

  struct Inflight {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    Reply reply;  ///< the owner's reply, valid once done
  };

  /// resolve() with an explicit receive timestamp (seconds on the
  /// server's uptime clock): queue-wait is measured from `received` to
  /// the moment a worker picks the request up.
  Reply resolve_received(const Request& request, double received);
  /// Executes (or waits out) a request that missed the cache. Reports
  /// the outcome (kMiss or kPoisoned when this call executed, kInflight
  /// when it joined another execution) and, when it executed, the
  /// execution wall time.
  Reply execute_or_join(const Request& request, const std::string& id,
                        Outcome* outcome,
                        std::optional<double>* execute_seconds);
  /// Answers a stats request from memory (never cached, never ledgered,
  /// excluded from requests_served() and the latency histograms).
  Reply stats_reply();
  void append_ledger(const Request& request, const Reply& reply,
                     double wall_seconds);
  /// The one place a served request is counted: counters, svc.execute
  /// timer, served count, ledger, histograms, series and events line.
  /// `picked_up` (uptime clock) is nullopt for a batch duplicate, which
  /// no worker resolved; `cache_corrupt` marks a lookup that quarantined
  /// a corrupt entry and re-executed.
  void record_served(const Request& request, const Reply& reply,
                     Outcome outcome, double received,
                     std::optional<double> picked_up = std::nullopt,
                     std::optional<double> execute_seconds = std::nullopt,
                     bool cache_corrupt = false);
  /// Appends one point per series feed for the window ending at `now` and
  /// opens the next window. Caller holds series_mutex_.
  void close_window(double now);
  [[nodiscard]] long inflight_count();

  ServerOptions options_;
  obs::MetricsRegistry* metrics_;
  ResultCache cache_;
  std::string git_sha_;
  std::string hostname_;

  std::mutex inflight_mutex_;
  std::map<std::string, std::shared_ptr<Inflight>> inflight_;

  std::mutex ledger_mutex_;
  std::atomic<long> requests_served_{0};

  // --- registry counters, resolved once ---
  std::atomic<long>& requests_;
  std::atomic<long>& executed_;
  std::atomic<long>& errors_;
  std::atomic<long>& poisoned_;
  std::atomic<long>& inflight_hits_;
  std::atomic<long>& batch_hits_;
  std::atomic<long>& stats_requests_;
  std::atomic<long>& queue_corrupt_;
  /// svc.kind.<kind>, indexed by RequestKind (stats requests excluded).
  std::atomic<long>* served_by_kind_[3] = {};

  // --- observability ---
  Stopwatch uptime_;
  obs::ShardedHistogram queue_wait_ns_;
  obs::ShardedHistogram execute_ns_;
  obs::ShardedHistogram end_to_end_ns_;
  std::atomic<long> queue_depth_{0};  ///< socket backlog / inbox depth

  std::mutex events_mutex_;
  std::ofstream events_out_;

  std::mutex series_mutex_;
  double window_start_ = 0.0;
  long window_requests_ = 0;
  long window_cache_hits_ = 0;
};

}  // namespace xlp::svc
