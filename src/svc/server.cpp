#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/timeseries.hpp"
#include "svc/chaos.hpp"
#include "svc/envelope.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"

namespace xlp::svc {

namespace fs = std::filesystem;

std::string Reply::to_text() const {
  std::string out;
  out.reserve(payload_text.size() + 96);
  out += "{\"schema\":\"";
  out += kReplySchema;
  out += "\",\"request_id\":\"";
  out += obs::json_escape(request_id);
  out += "\",\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  if (ok) {
    out += ",\"result\":";
    out += payload_text;  // canonical payload bytes, spliced verbatim
  } else {
    out += ",\"error\":{\"kind\":\"";
    out += obs::json_escape(error_kind);
    out += "\",\"retryable\":";
    out += retryable ? "true" : "false";
    out += ",\"message\":\"";
    out += obs::json_escape(payload_text);
    out += "\"}";
  }
  out += "}";
  return out;
}

namespace {

/// Latency histograms hold nanoseconds: exact below 128ns, log-bucketed
/// with <= 1.6% relative error above — microseconds to minutes all fit.
constexpr int kLatencyHistBits = 7;

long to_ns(double seconds) {
  return seconds > 0.0 ? static_cast<long>(seconds * 1e9) : 0;
}

/// The request kinds a server serves (stats requests are introspection).
constexpr RequestKind kServedKinds[] = {
    RequestKind::kSolve, RequestKind::kEvaluate, RequestKind::kSimulate};

/// svc-events/1 outcome values, indexed by Server::Outcome.
constexpr const char* kOutcomeNames[] = {"cache", "miss", "inflight",
                                         "batch", "poisoned"};

void bump(std::atomic<long>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::global()),
      cache_(options_.cache_dir, options_.cache_entries, metrics_),
      requests_(metrics_->counter_handle("svc.requests")),
      executed_(metrics_->counter_handle("svc.executed")),
      errors_(metrics_->counter_handle("svc.errors")),
      poisoned_(metrics_->counter_handle("svc.requests.poisoned")),
      inflight_hits_(metrics_->counter_handle("svc.inflight.hits")),
      batch_hits_(metrics_->counter_handle("svc.batch.hits")),
      stats_requests_(metrics_->counter_handle("svc.stats")),
      queue_corrupt_(metrics_->counter_handle("svc.queue.corrupt")),
      queue_wait_ns_(kLatencyHistBits),
      execute_ns_(kLatencyHistBits),
      end_to_end_ns_(kLatencyHistBits) {
  for (const RequestKind kind : kServedKinds)
    served_by_kind_[static_cast<int>(kind)] =
        &metrics_->counter_handle(std::string("svc.kind.") + to_string(kind));
  const obs::Provenance prov = obs::Provenance::collect(0);
  git_sha_ = prov.git_sha;
  hostname_ = prov.hostname;
  if (!options_.events_path.empty() &&
      obs::ensure_parent_dir(options_.events_path))
    events_out_.open(options_.events_path, std::ios::app);
}

long Server::requests_served() const noexcept {
  return requests_served_.load(std::memory_order_relaxed);
}

Reply Server::resolve(const Request& request) {
  return resolve_received(request, uptime_.seconds());
}

Reply Server::resolve_received(const Request& request, double received) {
  // Stats requests are introspection: answered from memory before the
  // cache / dedup / execution machinery, never counted as served work.
  if (request.kind == RequestKind::kStats) return stats_reply();

  // A worker picked the request up now: its queue wait ends here.
  const double picked_up = uptime_.seconds();
  const std::string id = request.id();

  Reply reply;
  reply.request_id = id;
  Outcome outcome = Outcome::kCache;
  std::optional<double> execute_seconds;
  bool cache_corrupt = false;
  if (auto cached = cache_.get(id, &cache_corrupt)) {
    reply.cache_hit = true;
    reply.payload_text = std::move(*cached);
  } else {
    // A corrupt entry was quarantined by the lookup itself; falling
    // through to execution here is the transparent recompute.
    reply = execute_or_join(request, id, &outcome, &execute_seconds);
  }
  record_served(request, reply, outcome, received, picked_up,
                execute_seconds, cache_corrupt);
  return reply;
}

Reply Server::execute_or_join(const Request& request, const std::string& id,
                              Outcome* outcome,
                              std::optional<double>* execute_seconds) {
  std::shared_ptr<Inflight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(id);
    if (it == inflight_.end()) {
      flight = std::make_shared<Inflight>();
      inflight_.emplace(id, flight);
      owner = true;
    } else {
      flight = it->second;
    }
  }

  if (!owner) {
    // Another thread is computing this exact request: wait for its answer
    // and fan it out. No second execution happens.
    *outcome = Outcome::kInflight;
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->done_cv.wait(lock, [&flight] { return flight->done; });
    Reply joined = flight->reply;
    joined.cache_hit = true;
    return joined;
  }

  *outcome = Outcome::kMiss;
  const Stopwatch execute_watch;
  Reply reply;
  reply.request_id = id;
  const auto poison = [&](const char* message) {
    reply.ok = false;
    reply.payload_text = message;
    reply.error_kind = "poisoned";
    reply.retryable = true;
    *outcome = Outcome::kPoisoned;
  };
  runctl::Deadline deadline =
      options_.request_time_limit > 0.0
          ? runctl::Deadline::after_seconds(options_.request_time_limit)
          : runctl::Deadline{};
  runctl::RunControl control(options_.cancel, deadline);
  // The poison boundary: whatever execution does — throw a typed Error,
  // a foreign exception, or anything else — it becomes a structured
  // error reply, and the batch / daemon keep serving.
  try {
    if (ChaosPolicy::global().should(ChaosSite::kWorkerThrow))
      throw std::runtime_error("chaos: injected worker exception");
    reply.payload_text = execute_request(request, &control).dump();
    cache_.put(id, reply.payload_text);
  } catch (const Error& error) {
    reply.ok = false;
    reply.payload_text = error.what();
    reply.error_kind = error_code_name(error.code());
    // A deadline / cancel stop (kState) or an internal fault can succeed
    // on resubmission; a request that is wrong in itself cannot.
    reply.retryable = error.code() == ErrorCode::kState ||
                      error.code() == ErrorCode::kInternal;
  } catch (const std::exception& error) {
    poison(error.what());
  } catch (...) {
    poison("request execution escaped with a non-standard exception");
  }
  *execute_seconds = execute_watch.seconds();

  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->done = true;
    flight->reply = reply;
  }
  flight->done_cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(id);
  }
  return reply;
}

std::vector<Reply> Server::serve_batch(const std::vector<Request>& requests) {
  // Every request in the batch was received now, on the uptime clock:
  // queue-wait measures from here to its pool pickup.
  const double received = uptime_.seconds();

  // Dedupe by content id *before* touching the pool: each unique request
  // resolves exactly once, and which occurrence carries the executed reply
  // is decided by submission order, not scheduling — so the reply document
  // is byte-identical at any thread count. Stats requests bypass the pool
  // entirely (they are answered from memory during assembly below).
  std::vector<std::string> ids;
  ids.reserve(requests.size());
  std::unordered_map<std::string, std::size_t> first_of;
  std::vector<std::size_t> unique_indices;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind == RequestKind::kStats) {
      ids.emplace_back();
      continue;
    }
    ids.push_back(requests[i].id());
    if (first_of.emplace(ids.back(), unique_indices.size()).second)
      unique_indices.push_back(i);
  }

  std::vector<Reply> unique_replies(unique_indices.size());
  util::ThreadPool pool(options_.threads);
  pool.parallel_for(static_cast<long>(unique_indices.size()), [&](long u) {
    unique_replies[static_cast<std::size_t>(u)] = resolve_received(
        requests[unique_indices[static_cast<std::size_t>(u)]], received);
  });

  std::vector<Reply> replies;
  replies.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind == RequestKind::kStats) {
      replies.push_back(stats_reply());
      continue;
    }
    const std::size_t u = first_of.at(ids[i]);
    Reply reply = unique_replies[u];
    if (unique_indices[u] != i) {
      // A within-batch duplicate: served from the first occurrence's
      // answer, which is by definition not a second execution. It still
      // counts as a request of its own, ledger record included.
      reply.cache_hit = true;
      record_served(requests[i], reply, Outcome::kBatch, received);
    }
    replies.push_back(std::move(reply));
  }
  return replies;
}

std::string Server::serve_text(const std::string& text) {
  const auto doc = obs::Json::parse(text);
  // Malformed submissions are never retryable: the identical bytes will
  // fail the identical way.
  const auto error_reply = [](const std::string& message,
                              const char* kind) {
    Reply reply;
    reply.ok = false;
    reply.payload_text = message;
    reply.error_kind = kind;
    reply.retryable = false;
    return reply;
  };
  if (!doc)
    return error_reply("submission is not valid JSON", "parse").to_text();

  if (doc->is_object()) {
    try {
      return serve_batch({Request::from_json(*doc)})[0].to_text();
    } catch (const Error& error) {
      return error_reply(error.what(), error_code_name(error.code()))
          .to_text();
    }
  }
  if (!doc->is_array())
    return error_reply("submission must be a request object or an array",
                       "schema")
        .to_text();

  // Parse every element first (errors become in-place error replies), then
  // serve the well-formed ones as one batch so duplicates still collapse.
  std::vector<Request> good;
  struct ParseError {
    std::string message;
    const char* kind;
  };
  std::vector<std::optional<ParseError>> parse_errors(doc->size());
  for (std::size_t i = 0; i < doc->size(); ++i) {
    try {
      good.push_back(Request::from_json(doc->at(i)));
    } catch (const Error& error) {
      parse_errors[i] =
          ParseError{error.what(), error_code_name(error.code())};
    }
  }
  const std::vector<Reply> served = serve_batch(good);

  std::string out = "[";
  std::size_t next_served = 0;
  for (std::size_t i = 0; i < parse_errors.size(); ++i) {
    if (i > 0) out += ",";
    out += parse_errors[i]
               ? error_reply(parse_errors[i]->message, parse_errors[i]->kind)
                     .to_text()
               : served[next_served++].to_text();
  }
  out += "]";
  return out;
}

long Server::run_queue(const std::string& queue_dir, bool once,
                       double poll_seconds) {
  const fs::path inbox = fs::path(queue_dir) / "inbox";
  const fs::path outbox = fs::path(queue_dir) / "outbox";
  std::error_code ec;
  fs::create_directories(inbox, ec);
  fs::create_directories(outbox, ec);

  long served = 0;
  const auto cancelled = [this] {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  };
  while (true) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(inbox, ec)) {
      if (entry.is_regular_file(ec) && entry.path().extension() == ".json")
        names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    queue_depth_.store(static_cast<long>(names.size()),
                       std::memory_order_relaxed);

    for (const std::string& name : names) {
      if (cancelled()) return served;
      const auto text = util::read_file((inbox / name).string());
      if (!text) continue;  // raced with a concurrent consumer

      // Submissions arrive envelope-wrapped (svc::queue_submit); bare
      // documents are accepted for compatibility with hand-written files.
      // A corrupt envelope is quarantined — with an error reply in the
      // outbox so the submitter is not left polling forever.
      std::string submission;
      std::string reason;
      std::string reply_text;
      bool corrupt_submission = false;
      switch (unwrap_envelope(*text, &submission, &reason)) {
        case EnvelopeStatus::kOk:
          reply_text = serve_text(submission);
          break;
        case EnvelopeStatus::kNotEnvelope:
          reply_text = serve_text(*text);
          break;
        case EnvelopeStatus::kCorrupt: {
          corrupt_submission = true;
          Reply corrupt;
          corrupt.ok = false;
          corrupt.payload_text = "submission failed checksum: " + reason;
          corrupt.error_kind = "parse";
          corrupt.retryable = false;
          reply_text = corrupt.to_text();
          break;
        }
      }

      ChaosPolicy& chaos = ChaosPolicy::global();
      if (chaos.should(ChaosSite::kQueuePartial)) {
        // Tear the reply: a direct, non-atomic half-write — what a crash
        // mid-write would leave without atomic_write_file. The submission
        // is kept, so the next pass overwrites the torn file via rename;
        // the client's envelope check keeps it polling until then.
        const std::string wrapped = wrap_envelope(reply_text);
        std::ofstream torn((outbox / name).string(),
                           std::ios::binary | std::ios::trunc);
        torn.write(wrapped.data(),
                   static_cast<std::streamsize>(wrapped.size() / 2));
        continue;
      }
      // Reply before removing the submission: a crash in between replays
      // the file on restart, and the cache makes the replay a no-op.
      if (!chaos_write_file((outbox / name).string(),
                            wrap_envelope(reply_text)))
        continue;  // keep the submission; retry on the next pass
      if (corrupt_submission) {
        // Only now that the error reply is durable does the bad
        // submission leave the inbox — into quarantine, for forensics.
        const fs::path qdir = fs::path(queue_dir) / "quarantine";
        fs::create_directories(qdir, ec);
        fs::rename(inbox / name, qdir / name, ec);
        if (ec) fs::remove(inbox / name, ec);
        bump(queue_corrupt_);
      } else {
        fs::remove(inbox / name, ec);
      }
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      ++served;
    }
    queue_depth_.store(0, std::memory_order_relaxed);
    if (once) return served;

    // Sleep in short slices so SIGINT is honoured promptly.
    double remaining = std::max(poll_seconds, 0.01);
    while (remaining > 0.0) {
      if (cancelled()) return served;
      const double slice = std::min(remaining, 0.05);
      std::this_thread::sleep_for(std::chrono::duration<double>(slice));
      remaining -= slice;
    }
  }
}

namespace {

bool read_exact(int fd, void* buffer, std::size_t bytes) {
  auto* out = static_cast<char*>(buffer);
  while (bytes > 0) {
    const ssize_t got = ::read(fd, out, bytes);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_exact(int fd, const void* buffer, std::size_t bytes) {
  const auto* in = static_cast<const char*>(buffer);
  while (bytes > 0) {
    const ssize_t put = ::write(fd, in, bytes);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    in += put;
    bytes -= static_cast<std::size_t>(put);
  }
  return true;
}

/// One frame: 4-byte little-endian byte count, then that many bytes.
bool read_frame(int fd, std::string& out) {
  unsigned char header[4];
  if (!read_exact(fd, header, 4)) return false;
  const std::uint32_t length =
      static_cast<std::uint32_t>(header[0]) |
      (static_cast<std::uint32_t>(header[1]) << 8) |
      (static_cast<std::uint32_t>(header[2]) << 16) |
      (static_cast<std::uint32_t>(header[3]) << 24);
  if (length > (64u << 20)) return false;  // refuse absurd frames
  out.resize(length);
  return length == 0 || read_exact(fd, out.data(), length);
}

bool write_frame(int fd, const std::string& text) {
  const auto length = static_cast<std::uint32_t>(text.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(length & 0xff),
      static_cast<unsigned char>((length >> 8) & 0xff),
      static_cast<unsigned char>((length >> 16) & 0xff),
      static_cast<unsigned char>((length >> 24) & 0xff)};
  return write_exact(fd, header, 4) &&
         (text.empty() || write_exact(fd, text.data(), text.size()));
}

}  // namespace

bool Server::run_socket(const std::string& socket_path) {
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) return false;
  ::unlink(socket_path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) return false;

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path.c_str(),
               sizeof(address.sun_path) - 1);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listener, 64) != 0) {
    ::close(listener);
    return false;
  }

  // Dedicated connection workers (not the batch pool): each serves whole
  // connections sequentially, so concurrent clients submitting the same
  // request exercise the in-flight dedup path.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<int> pending;
  bool accepting = true;

  const int workers = util::resolve_thread_count(options_.threads);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (true) {
        int fd = -1;
        {
          std::unique_lock<std::mutex> lock(queue_mutex);
          queue_cv.wait(lock,
                        [&] { return !pending.empty() || !accepting; });
          if (pending.empty()) return;  // drained and shut down
          fd = pending.front();
          pending.pop_front();
          queue_depth_.store(static_cast<long>(pending.size()),
                             std::memory_order_relaxed);
        }
        std::string text;
        while (read_frame(fd, text)) {
          const std::string reply = serve_text(text);
          ChaosPolicy& chaos = ChaosPolicy::global();
          if (chaos.should(ChaosSite::kFrameDisconnect))
            break;  // drop the connection instead of replying
          if (chaos.should(ChaosSite::kFrameTruncate)) {
            // A header promising the full reply, then only half the body:
            // the client's read_frame blocks until our close, then fails
            // as a transport error and the retry path resubmits.
            const unsigned char header[4] = {
                static_cast<unsigned char>(reply.size() & 0xff),
                static_cast<unsigned char>((reply.size() >> 8) & 0xff),
                static_cast<unsigned char>((reply.size() >> 16) & 0xff),
                static_cast<unsigned char>((reply.size() >> 24) & 0xff)};
            (void)write_exact(fd, header, 4);
            (void)write_exact(fd, reply.data(), reply.size() / 2);
            break;
          }
          if (!write_frame(fd, reply)) break;
        }
        ::close(fd);
      }
    });
  }

  const auto cancelled = [this] {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  };
  while (!cancelled()) {
    pollfd waiter{listener, POLLIN, 0};
    const int ready = ::poll(&waiter, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) continue;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      pending.push_back(client);
      queue_depth_.store(static_cast<long>(pending.size()),
                         std::memory_order_relaxed);
    }
    queue_cv.notify_one();
  }

  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    accepting = false;  // workers drain the queue, then exit
  }
  queue_cv.notify_all();
  for (std::thread& worker : pool) worker.join();
  ::close(listener);
  ::unlink(socket_path.c_str());
  return true;
}

void Server::append_ledger(const Request& request, const Reply& reply,
                           double wall_seconds) {
  if (options_.ledger_path.empty()) return;
  obs::LedgerEntry entry;
  entry.subcommand = "svc";
  entry.params = request.to_json();
  entry.seed = request.seed;
  entry.git_sha = git_sha_;
  entry.hostname = hostname_;
  entry.wall_seconds = wall_seconds;
  entry.exit_status = reply.ok ? 0 : 1;
  entry.cache_hit = reply.cache_hit ? 1 : 0;
  // append_ledger_entry rewrites the whole file; serialize appends so
  // concurrent pool workers never drop each other's records.
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  (void)obs::append_ledger_entry(options_.ledger_path, entry);
}

long Server::inflight_count() {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  return static_cast<long>(inflight_.size());
}

void Server::record_served(const Request& request, const Reply& reply,
                           Outcome outcome, double received,
                           std::optional<double> picked_up,
                           std::optional<double> execute_seconds,
                           bool cache_corrupt) {
  const double replied = uptime_.seconds();
  const double end_to_end = std::max(replied - received, 0.0);
  // Queue wait: from receipt (frame read / batch entry) to worker pickup.
  std::optional<double> queue_wait;
  if (picked_up) queue_wait = std::max(*picked_up - received, 0.0);

  // A cache hit needs nothing more: the lookup counted svc.cache.hits.
  bump(requests_);
  bump(*served_by_kind_[static_cast<int>(request.kind)]);
  if (outcome == Outcome::kBatch) bump(batch_hits_);
  if (outcome == Outcome::kInflight) bump(inflight_hits_);
  if (outcome == Outcome::kMiss && reply.ok) bump(executed_);
  if ((outcome == Outcome::kMiss || outcome == Outcome::kPoisoned) && !reply.ok)
    bump(errors_);
  if (outcome == Outcome::kPoisoned) bump(poisoned_);
  if (execute_seconds) metrics_->record_time("svc.execute", *execute_seconds);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  append_ledger(request, reply, picked_up ? replied - *picked_up : 0.0);

  if (options_.observe) {
    if (queue_wait) queue_wait_ns_.record(to_ns(*queue_wait));
    if (execute_seconds) execute_ns_.record(to_ns(*execute_seconds));
    // Exactly one end-to-end sample per request served, whatever the
    // dedup outcome: the histogram's count equals requests_served().
    end_to_end_ns_.record(to_ns(end_to_end));

    if (options_.series != nullptr) {
      std::lock_guard<std::mutex> lock(series_mutex_);
      ++window_requests_;
      if (reply.cache_hit) ++window_cache_hits_;
      const double span = replied - window_start_;
      if (span >= options_.series_window && span > 0.0) close_window(replied);
    }
  }

  if (events_out_.is_open()) {
    const obs::Json event =
        obs::Json::object()
            .set("schema", kEventsSchema)
            .set("request_id", reply.request_id)
            .set("kind", svc::to_string(request.kind))
            .set("outcome", kOutcomeNames[static_cast<int>(outcome)])
            .set("ok", reply.ok)
            .set("cache_corrupt", cache_corrupt)
            .set("received_s", received)
            .set("queue_wait_ns", queue_wait ? to_ns(*queue_wait) : 0L)
            .set("execute_ns", execute_seconds ? to_ns(*execute_seconds) : 0L)
            .set("end_to_end_ns", to_ns(end_to_end));
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_out_ << event.dump() << '\n';
    events_out_.flush();
  }
}

void Server::close_window(double now) {
  const double span = std::max(now - window_start_, 1e-9);
  options_.series->append("svc.requests_per_sec", now,
                          static_cast<double>(window_requests_) / span);
  options_.series->append("svc.cache_hit_rate", now,
                          static_cast<double>(window_cache_hits_) /
                              static_cast<double>(window_requests_));
  options_.series->append(
      "svc.queue_depth", now,
      static_cast<double>(queue_depth_.load(std::memory_order_relaxed)));
  options_.series->append("svc.inflight", now,
                          static_cast<double>(inflight_count()));
  window_start_ = now;
  window_requests_ = 0;
  window_cache_hits_ = 0;
}

Reply Server::stats_reply() {
  bump(stats_requests_);
  Request probe;
  probe.kind = RequestKind::kStats;
  Reply reply;
  reply.request_id = probe.id();
  reply.ok = true;
  reply.payload_text = stats_snapshot().dump();
  return reply;
}

obs::Json Server::stats_snapshot() {
  const double uptime = uptime_.seconds();
  obs::Json kinds = obs::Json::object();
  for (const RequestKind kind : kServedKinds)
    kinds.set(to_string(kind), served_by_kind_[static_cast<int>(kind)]->load(
                                   std::memory_order_relaxed));
  const long requests = metrics_->counter("svc.requests");
  const long executed = metrics_->counter("svc.executed");
  const long errors = metrics_->counter("svc.errors");
  const long cache_hits = metrics_->counter("svc.cache.hits");
  const long inflight_hits = metrics_->counter("svc.inflight.hits");
  const long batch_hits = metrics_->counter("svc.batch.hits");
  const long dedup_hits = cache_hits + inflight_hits + batch_hits;
  const obs::TimerStat execute_timer = metrics_->timer("svc.execute");
  const int threads = util::resolve_thread_count(options_.threads);
  const double utilization =
      uptime > 0.0 && threads > 0
          ? std::min(1.0, execute_timer.seconds /
                              (uptime * static_cast<double>(threads)))
          : 0.0;

  return obs::Json::object()
      .set("kind", "stats")
      .set("uptime_seconds", uptime)
      .set("requests_served", requests_served())
      .set("stats_requests", metrics_->counter("svc.stats"))
      .set("queue_depth", queue_depth_.load(std::memory_order_relaxed))
      .set("inflight", inflight_count())
      .set("kinds", std::move(kinds))
      .set("dedup",
           obs::Json::object()
               .set("cache_hits", cache_hits)
               .set("cache_misses", metrics_->counter("svc.cache.misses"))
               .set("inflight_hits", inflight_hits)
               .set("batch_hits", batch_hits)
               .set("executed", executed)
               .set("errors", errors)
               .set("poisoned", metrics_->counter("svc.requests.poisoned"))
               .set("hit_rate", requests > 0 ? static_cast<double>(dedup_hits) /
                                                   static_cast<double>(requests)
                                             : 0.0))
      .set("cache",
           obs::Json::object()
               .set("entries", static_cast<long>(cache_.size()))
               .set("capacity", static_cast<long>(options_.cache_entries))
               .set("evictions", metrics_->counter("svc.cache.evictions"))
               .set("corrupt", metrics_->counter("svc.cache.corrupt")))
      .set("workers", obs::Json::object()
                          .set("threads", threads)
                          .set("busy_seconds", execute_timer.seconds)
                          .set("utilization", utilization))
      .set("latency",
           obs::Json::object()
               .set("queue_wait", queue_wait_ns_.snapshot().to_json())
               .set("execute", execute_ns_.snapshot().to_json())
               .set("end_to_end", end_to_end_ns_.snapshot().to_json()))
      .set("chaos", ChaosPolicy::global().to_json());
}

void Server::flush_observability() {
  if (options_.observe && options_.series != nullptr) {
    std::lock_guard<std::mutex> lock(series_mutex_);
    if (window_requests_ > 0) close_window(uptime_.seconds());
  }
  std::lock_guard<std::mutex> lock(events_mutex_);
  if (events_out_.is_open()) events_out_.flush();
}

}  // namespace xlp::svc
