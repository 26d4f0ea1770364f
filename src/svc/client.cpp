#include "svc/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <thread>

#include "svc/request.hpp"
#include "svc/wire.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace xlp::svc {

namespace fs = std::filesystem;

double RetryPolicy::backoff_ms(int attempt) const {
  const int step = std::max(attempt, 1);
  const double exponential =
      std::min(max_ms, base_ms * std::pow(2.0, step - 1));
  // Jitter is a pure function of (seed, attempt): fork an independent
  // stream per attempt so the schedule is reproducible yet spread out.
  Rng base(seed);
  Rng stream = base.fork(static_cast<std::uint64_t>(step));
  return exponential * (0.5 + 0.5 * stream.uniform01());
}

bool reply_has_retryable_error(const std::string& reply_text) {
  try {
    for (const Reply& reply : decode_replies(reply_text))
      if (!reply.ok && reply.retryable) return true;
  } catch (const Error&) {
    // A malformed reply carries no retry signal.
  }
  return false;
}

bool queue_submit(const std::string& queue_dir, const std::string& name,
                  const std::string& text) {
  return util::atomic_write_file(
      (QueueDirs(queue_dir).inbox / (name + ".json")).string(),
      wrap_envelope(text));
}

std::string queue_wait(const std::string& queue_dir, const std::string& name,
                       double timeout_seconds) {
  const QueueDirs dirs(queue_dir);
  const fs::path reply_path = dirs.outbox / (name + ".json");
  const fs::path inbox_path = dirs.inbox / (name + ".json");
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration<double>(timeout_seconds);
  while (true) {
    // Anything but a verified envelope is a torn or in-progress write:
    // leave it and keep polling — the server replaces outbox files via
    // atomic rename on its next pass over the still-present submission.
    std::string payload;
    if (const auto text = util::read_file(reply_path.string());
        text && unwrap_envelope(*text, &payload) == EnvelopeStatus::kOk) {
      std::error_code ec;
      fs::remove(reply_path, ec);
      return payload;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      const double elapsed =
          std::chrono::duration<double>(now - start).count();
      std::error_code ec;
      const bool pending = fs::exists(inbox_path, ec);
      char waited[48];
      std::snprintf(waited, sizeof(waited), "waited %.1fs", elapsed);
      throw Error(ErrorCode::kState, "timed out waiting for queue reply")
          .with_context("request '" + name + "', " + waited)
          .with_context(pending ? "submission still in inbox — server down "
                                  "or backlogged"
                                : "submission was consumed but no reply "
                                  "arrived");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

SocketClient::SocketClient(const std::string& socket_path,
                           RetryPolicy retry)
    : socket_path_(socket_path),
      retry_(retry),
      fd_(connect_unix(socket_path)) {
  // Retrying the connect covers the startup race: a client launched
  // alongside the daemon reaches connect() before the socket is bound.
  for (int attempt = 1; fd_ < 0 && attempt <= retry_.retries; ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(
            retry_.backoff_ms(attempt)));
    fd_ = connect_unix(socket_path_);
  }
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<std::string> SocketClient::submit(const std::string& text) {
  if (fd_ < 0) return std::nullopt;
  std::string reply;
  if (write_frame(fd_, text) && read_frame(fd_, reply)) return reply;
  ::close(fd_);
  fd_ = -1;
  return std::nullopt;
}

std::optional<std::string> SocketClient::submit_with_retry(
    const std::string& text) {
  std::optional<std::string> last;
  for (int attempt = 0; attempt <= retry_.retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(
              retry_.backoff_ms(attempt)));
      if (fd_ < 0) fd_ = connect_unix(socket_path_);
    }
    if (fd_ < 0) continue;
    last = submit(text);
    if (!last) continue;  // transport error; reconnect next attempt
    if (!reply_has_retryable_error(*last)) return last;
    // A retryable error reply: resubmitting is safe — the server dedups
    // by content id, so completed work comes back as a cache hit.
  }
  return last;
}

std::string stats_request_text() {
  Request probe;
  probe.kind = RequestKind::kStats;
  return probe.to_json().dump();
}

}  // namespace xlp::svc
