#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace xlp::svc {

/// Client-side helpers for talking to `xlpd`: the retry policy and the
/// two transports (file queue, local socket). A client submits its work as
/// request documents through these, so repeated design points are
/// answered by the server's content-addressed cache instead of re-solved.

/// Bounded exponential backoff with deterministic jitter — the retry
/// schedule behind `xlp submit --retries/--retry-base-ms` and the socket
/// client's reconnect loop. Deterministic: backoff_ms(k) is a pure
/// function of (seed, k), so a retrying test run is reproducible.
struct RetryPolicy {
  int retries = 5;         ///< additional attempts after the first (0 = none)
  double base_ms = 50.0;   ///< delay before the first retry
  double max_ms = 2000.0;  ///< exponential growth is capped here
  std::uint64_t seed = 1;  ///< jitter stream

  /// Delay in milliseconds before retry `attempt` (1-based):
  /// min(max_ms, base_ms * 2^(attempt-1)) scaled by a jitter factor in
  /// [0.5, 1.0) so synchronized clients fan out instead of stampeding.
  [[nodiscard]] double backoff_ms(int attempt) const;
};

/// True when decode_replies(reply_text) holds at least one retryable
/// error reply — the server's signal that resubmitting the identical
/// request can succeed (deadline stops, injected faults, poisoned
/// executions). A reply document that does not decode is not retryable.
[[nodiscard]] bool reply_has_retryable_error(const std::string& reply_text);

/// Drops a submission into `<queue_dir>/inbox/<name>.json`, wrapped in the
/// xlp-envelope/1 integrity envelope and written atomically — the server
/// verifies the checksum before trusting a byte of it. Returns false on
/// write failure.
[[nodiscard]] bool queue_submit(const std::string& queue_dir,
                                const std::string& name,
                                const std::string& text);

/// Polls `<queue_dir>/outbox/<name>.json` until a verified reply appears,
/// then consumes (removes) the file and returns the reply document. A file
/// that is not a verified envelope is a write in progress or a torn write
/// — it is left in place and polling continues, because the server
/// rewrites replies atomically on its next pass.
///
/// Throws Error(kState) when `timeout_seconds` elapses, with context
/// naming the request, the time waited, and whether the inbox submission
/// still exists — which distinguishes "server down or backlogged" (file
/// still there) from "reply lost after consumption".
[[nodiscard]] std::string queue_wait(const std::string& queue_dir,
                                     const std::string& name,
                                     double timeout_seconds);

/// A persistent connection to a socket `xlpd`: one length-prefixed frame
/// round trip per submit() call, all over the same connection — so a
/// client can time requests individually (`xlp submit`) or poll a stats
/// snapshot cheaply (`xlp top`) without a connect per request.
class SocketClient {
 public:
  /// Connects to the daemon, retrying per `retry` on connect failure
  /// (covers the startup race where the client outpaces the daemon's
  /// bind); ok() is false when every attempt failed.
  explicit SocketClient(const std::string& socket_path,
                        RetryPolicy retry = {});
  ~SocketClient();
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

  /// Sends one submission document, reads one reply document. nullopt on
  /// a transport error; the connection is dead afterwards.
  [[nodiscard]] std::optional<std::string> submit(const std::string& text);

  /// submit() behind the retry policy: a transport error (connection
  /// refused/reset, truncated reply frame) reconnects and resends after
  /// backoff; a reply carrying a retryable error resubmits the same way.
  /// Safe because the server deduplicates by content id — a resend of
  /// already-executed work is a cache hit, byte-identical by contract.
  /// Returns the last reply (which may still be a non-retryable or
  /// exhausted-retries error reply), or nullopt when the transport never
  /// recovered.
  [[nodiscard]] std::optional<std::string> submit_with_retry(
      const std::string& text);

 private:
  std::string socket_path_;
  RetryPolicy retry_;
  int fd_ = -1;
};

/// The canonical `stats` probe submission ({"schema","kind":"stats"}) —
/// what `xlp top` sends every refresh.
[[nodiscard]] std::string stats_request_text();

}  // namespace xlp::svc
