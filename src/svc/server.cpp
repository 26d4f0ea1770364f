#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/timeseries.hpp"
#include "svc/chaos.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"

namespace xlp::svc {

namespace fs = std::filesystem;

namespace {

/// Latency histograms hold nanoseconds: exact below 128ns, log-bucketed
/// with <= 1.6% relative error above — microseconds to minutes all fit.
constexpr int kLatencyHistBits = 7;

long to_ns(double seconds) {
  return seconds > 0.0 ? static_cast<long>(seconds * 1e9) : 0;
}

// Server::served_by_kind_ is indexed by the kind itself.
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kServedKinds); ++i)
        if (static_cast<std::size_t>(kServedKinds[i]) != i) return false;
      return true;
    }(),
    "kServedKinds must list the served kinds in RequestKind order");

/// Ledger lifecycle outcome values, indexed by Server::Outcome.
constexpr const char* kOutcomeNames[] = {"cache", "miss", "inflight",
                                         "batch", "poisoned"};

void bump(std::atomic<long>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

/// The serialized error reply to a submission that is wrong in itself
/// (kParse / kSchema, so never retryable: the identical bytes fail the
/// identical way).
std::string rejection(const Error& error) {
  return error_reply(error).to_text();
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
      execute_ns_total_(metrics_->counter_handle("svc.execute_ns")),
      cache_hits_(metrics_->counter_handle("svc.cache.hits")),
      cache_misses_(metrics_->counter_handle("svc.cache.misses")),
      cache_evictions_(metrics_->counter_handle("svc.cache.evictions")),
      cache_corrupt_(metrics_->counter_handle("svc.cache.corrupt")),
      queue_wait_ns_(kLatencyHistBits),
      execute_ns_(kLatencyHistBits),
      end_to_end_ns_(kLatencyHistBits) {
  for (const RequestKind kind : kServedKinds)
    served_by_kind_[static_cast<int>(kind)] =
        &metrics_->counter_handle(std::string("svc.kind.") + to_string(kind));
  const obs::Provenance prov = obs::Provenance::collect(0);
  git_sha_ = prov.git_sha;
  hostname_ = prov.hostname;
}

long Server::requests_served() const noexcept {
  return requests_served_.load(std::memory_order_relaxed);
}

Reply Server::resolve(const Request& request) {
  const double received = uptime_.seconds();
  // Stats requests are introspection: answered from memory before the
  // cache / dedup / execution machinery, never counted as served work.
  if (request.kind == RequestKind::kStats) return stats_reply();
  return resolve_received(request, request.id(), received);
}

Reply Server::resolve_received(const Request& request, const std::string& id,
                               double received) {
  // A worker picked the request up now: its queue wait ends here.
  const double picked_up = uptime_.seconds();

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
    reply.error_kind = kPoisonedKind;
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
    // The previous owner of this id may have finished between this
    // thread's cache miss and its registration above: its result is
    // cached by then, so serve it instead of executing a second time.
    if (auto cached = cache_.contains(id) ? cache_.get(id) : std::nullopt) {
      *outcome = Outcome::kCache;
      reply.cache_hit = true;
      reply.payload_text = std::move(*cached);
    } else {
      reply.payload_text = execute_request(request, &control).dump();
      cache_.put(id, reply.payload_text);
    }
  } catch (const Error& error) {
    reply = error_reply(error, id);
  } catch (const std::exception& error) {
    poison(error.what());
  } catch (...) {
    poison("request execution escaped with a non-standard exception");
  }
  if (*outcome != Outcome::kCache) *execute_seconds = execute_watch.seconds();

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
  // entirely (they are answered from memory during assembly below). The
  // pool is sized by the unique count, so a one-request batch resolves on
  // the calling thread with no worker started.
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

  const auto unique = static_cast<long>(unique_indices.size());
  std::vector<Reply> unique_replies(unique_indices.size());
  util::ThreadPool pool(options_.threads, unique);
  pool.parallel_for(unique, [&](long u) {
    const std::size_t i = unique_indices[static_cast<std::size_t>(u)];
    unique_replies[static_cast<std::size_t>(u)] =
        resolve_received(requests[i], ids[i], received);
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
  if (!doc)
    return rejection(Error(ErrorCode::kParse, "submission is not valid JSON"));

  if (doc->is_object()) {
    try {
      return resolve(Request::from_json(*doc)).to_text();
    } catch (const Error& error) {
      return rejection(error);
    }
  }
  if (!doc->is_array())
    return rejection(Error(ErrorCode::kSchema,
                           "submission must be a request object or an array"));

  // Parse every element first (errors become in-place error replies), then
  // serve the well-formed ones as one batch so duplicates still collapse.
  std::vector<Request> good;
  std::vector<std::string> rejected(doc->size());  // "" = parsed
  for (std::size_t i = 0; i < doc->size(); ++i) {
    try {
      good.push_back(Request::from_json(doc->at(i)));
    } catch (const Error& error) {
      rejected[i] = rejection(error);
    }
  }
  const std::vector<Reply> served = serve_batch(good);

  std::string out = "[";
  std::size_t next_served = 0;
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    if (i > 0) out += ",";
    out += rejected[i].empty() ? served[next_served++].to_text() : rejected[i];
  }
  out += "]";
  return out;
}

long Server::run_queue(const std::string& queue_dir, bool once,
                       double poll_seconds) {
  const QueueDirs dirs(queue_dir);
  std::error_code ec;
  fs::create_directories(dirs.inbox, ec);
  fs::create_directories(dirs.outbox, ec);

  long served = 0;
  const auto cancelled = [this] {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  };
  while (true) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dirs.inbox, ec)) {
      if (entry.is_regular_file(ec) && entry.path().extension() == ".json")
        names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    queue_depth_.store(static_cast<long>(names.size()),
                       std::memory_order_relaxed);

    for (const std::string& name : names) {
      if (cancelled()) return served;
      const auto text = util::read_file((dirs.inbox / name).string());
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
        case EnvelopeStatus::kCorrupt:
          corrupt_submission = true;
          reply_text = rejection(Error(
              ErrorCode::kParse, "submission failed checksum: " + reason));
          break;
      }

      ChaosPolicy& chaos = ChaosPolicy::global();
      if (chaos.should(ChaosSite::kQueuePartial)) {
        // Tear the reply: a direct, non-atomic half-write — what a crash
        // mid-write would leave without atomic_write_file. The submission
        // is kept, so the next pass overwrites the torn file via rename;
        // the client's envelope check keeps it polling until then.
        const std::string wrapped = wrap_envelope(reply_text);
        std::ofstream torn((dirs.outbox / name).string(),
                           std::ios::binary | std::ios::trunc);
        torn.write(wrapped.data(),
                   static_cast<std::streamsize>(wrapped.size() / 2));
        continue;
      }
      // Reply before removing the submission: a crash in between replays
      // the file on restart, and the cache makes the replay a no-op.
      if (!chaos_write_file((dirs.outbox / name).string(),
                            wrap_envelope(reply_text)))
        continue;  // keep the submission; retry on the next pass
      if (corrupt_submission) {
        // Only now that the error reply is durable does the bad
        // submission leave the inbox — into quarantine, for forensics.
        fs::create_directories(dirs.quarantine, ec);
        fs::rename(dirs.inbox / name, dirs.quarantine / name, ec);
        if (ec) fs::remove(dirs.inbox / name, ec);
        bump(queue_corrupt_);
      } else {
        fs::remove(dirs.inbox / name, ec);
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

bool Server::run_socket(const std::string& socket_path) {
  const int listener = listen_unix(socket_path);
  if (listener < 0) return false;

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
            (void)write_frame(fd, reply, reply.size() / 2);
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
  if (execute_seconds)
    execute_ns_total_.fetch_add(to_ns(*execute_seconds),
                                std::memory_order_relaxed);
  requests_served_.fetch_add(1, std::memory_order_relaxed);

  if (!options_.ledger_path.empty()) {
    obs::LedgerEntry entry;
    entry.subcommand = "svc";
    entry.params = request.to_json();
    entry.seed = request.seed;
    entry.git_sha = git_sha_;
    entry.hostname = hostname_;
    entry.wall_seconds = picked_up ? replied - *picked_up : 0.0;
    entry.exit_status = reply.ok ? 0 : 1;
    entry.cache_hit = reply.cache_hit ? 1 : 0;
    entry.lifecycle = obs::LedgerEntry::Lifecycle{
        kOutcomeNames[static_cast<int>(outcome)],
        cache_corrupt,
        received,
        queue_wait ? to_ns(*queue_wait) : 0L,
        execute_seconds ? to_ns(*execute_seconds) : 0L,
        to_ns(end_to_end)};
    (void)obs::append_ledger_entry(options_.ledger_path, entry);
  }

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
  const auto read = [](const std::atomic<long>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  obs::Json kinds = obs::Json::object();
  for (const RequestKind kind : kServedKinds)
    kinds.set(to_string(kind), read(*served_by_kind_[static_cast<int>(kind)]));
  const long requests = read(requests_);
  const long cache_hits = read(cache_hits_);
  const long inflight_hits = read(inflight_hits_);
  const long batch_hits = read(batch_hits_);
  const long dedup_hits = cache_hits + inflight_hits + batch_hits;
  const double busy_seconds =
      static_cast<double>(read(execute_ns_total_)) / 1e9;
  const int threads = util::resolve_thread_count(options_.threads);
  const double utilization =
      uptime > 0.0 && threads > 0
          ? std::min(1.0,
                     busy_seconds / (uptime * static_cast<double>(threads)))
          : 0.0;

  return obs::Json::object()
      .set("kind", "stats")
      .set("uptime_seconds", uptime)
      .set("requests_served", requests_served())
      .set("stats_requests", read(stats_requests_))
      .set("queue_depth", queue_depth_.load(std::memory_order_relaxed))
      .set("inflight", inflight_count())
      .set("kinds", std::move(kinds))
      .set("dedup",
           obs::Json::object()
               .set("cache_hits", cache_hits)
               .set("cache_misses", read(cache_misses_))
               .set("inflight_hits", inflight_hits)
               .set("batch_hits", batch_hits)
               .set("executed", read(executed_))
               .set("errors", read(errors_))
               .set("poisoned", read(poisoned_))
               .set("hit_rate", requests > 0 ? static_cast<double>(dedup_hits) /
                                                   static_cast<double>(requests)
                                             : 0.0))
      .set("cache",
           obs::Json::object()
               .set("entries", static_cast<long>(cache_.size()))
               .set("capacity", static_cast<long>(options_.cache_entries))
               .set("evictions", read(cache_evictions_))
               .set("corrupt", read(cache_corrupt_)))
      .set("workers", obs::Json::object()
                          .set("threads", threads)
                          .set("busy_seconds", busy_seconds)
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
}

}  // namespace xlp::svc
