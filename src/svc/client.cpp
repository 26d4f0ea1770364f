#include "svc/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>

#include "obs/json.hpp"
#include "svc/envelope.hpp"
#include "topo/row_topology.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace xlp::svc {

namespace fs = std::filesystem;

std::vector<Request> sweep_batch(int n, const std::string& method,
                                 long moves, std::uint64_t seed,
                                 int base_flit_bits) {
  std::vector<Request> batch;
  for (const int limit : topo::valid_link_limits(n)) {
    if (base_flit_bits % limit != 0) continue;
    Request request;
    request.kind = RequestKind::kSolve;
    request.n = n;
    request.link_limit = limit;
    request.base_flit_bits = base_flit_bits;
    request.method = method;
    request.moves = moves;
    request.seed = seed;
    batch.push_back(std::move(request));
  }
  return batch;
}

std::string batch_to_text(const std::vector<Request>& batch) {
  std::string out = "[";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i > 0) out += ",";
    out += batch[i].to_json().dump();
  }
  out += "]";
  return out;
}

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

namespace {

bool is_retryable_error_reply(const obs::Json& reply) {
  if (!reply.is_object()) return false;
  const obs::Json* error = reply.find("error");
  if (error == nullptr || !error->is_object()) return false;
  const obs::Json* retryable = error->find("retryable");
  return retryable != nullptr &&
         retryable->type() == obs::Json::Type::kBool &&
         retryable->as_bool();
}

}  // namespace

bool reply_has_retryable_error(const std::string& reply_text) {
  const auto doc = obs::Json::parse(reply_text);
  if (!doc) return false;
  if (doc->is_array()) {
    for (std::size_t i = 0; i < doc->size(); ++i)
      if (is_retryable_error_reply(doc->at(i))) return true;
    return false;
  }
  return is_retryable_error_reply(*doc);
}

bool queue_submit(const std::string& queue_dir, const std::string& name,
                  const std::string& text) {
  return util::atomic_write_file(
      (fs::path(queue_dir) / "inbox" / (name + ".json")).string(),
      wrap_envelope(text));
}

std::string queue_wait(const std::string& queue_dir, const std::string& name,
                       double timeout_seconds) {
  const fs::path reply_path =
      fs::path(queue_dir) / "outbox" / (name + ".json");
  const fs::path inbox_path =
      fs::path(queue_dir) / "inbox" / (name + ".json");
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration<double>(timeout_seconds);
  while (true) {
    if (auto text = util::read_file(reply_path.string())) {
      std::string payload;
      switch (unwrap_envelope(*text, &payload)) {
        case EnvelopeStatus::kOk: {
          std::error_code ec;
          fs::remove(reply_path, ec);
          return payload;
        }
        case EnvelopeStatus::kNotEnvelope: {
          // A pre-envelope server's bare reply document.
          std::error_code ec;
          fs::remove(reply_path, ec);
          return *text;
        }
        case EnvelopeStatus::kCorrupt:
          // A torn or in-progress write: leave it and keep polling — the
          // server replaces outbox files via atomic rename on its next
          // pass over the still-present submission.
          break;
      }
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

namespace {

bool write_exact(int fd, const char* data, std::size_t bytes) {
  while (bytes > 0) {
    const ssize_t put = ::write(fd, data, bytes);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    data += put;
    bytes -= static_cast<std::size_t>(put);
  }
  return true;
}

bool read_exact(int fd, char* data, std::size_t bytes) {
  while (bytes > 0) {
    const ssize_t got = ::read(fd, data, bytes);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    data += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Connected AF_UNIX stream socket to `socket_path`, or -1.
int connect_unix(const std::string& socket_path) {
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path.c_str(),
               sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_frame(int fd, const std::string& text) {
  const auto length = static_cast<std::uint32_t>(text.size());
  const char header[4] = {static_cast<char>(length & 0xff),
                          static_cast<char>((length >> 8) & 0xff),
                          static_cast<char>((length >> 16) & 0xff),
                          static_cast<char>((length >> 24) & 0xff)};
  return write_exact(fd, header, 4) &&
         (text.empty() || write_exact(fd, text.data(), text.size()));
}

bool read_frame(int fd, std::string& out) {
  char header[4];
  if (!read_exact(fd, header, 4)) return false;
  const std::uint32_t length =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[0]))) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1]))
       << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]))
       << 24);
  out.assign(length, '\0');
  return length == 0 || read_exact(fd, out.data(), length);
}

}  // namespace

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
