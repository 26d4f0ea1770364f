// xlpd — the placement-as-a-service batch query server (docs/service.md).
//
// Serves xlp-request/1 documents through a content-addressed result cache:
// identical requests are solved once, answered byte-identically forever
// after (including across restarts — the cache is persisted), and deduped
// while in flight.
//
//   xlpd --batch <file.json>  [--out <file.json>]
//        serve one submission document (a request object or an array of
//        them), write the reply document, exit. The workhorse mode for
//        drivers: a C-sweep is one batch file.
//   xlpd --queue <dir>        [--once] [--poll-seconds 0.2]
//        file-queue transport: serve every <dir>/inbox/*.json into
//        <dir>/outbox/<same-name>; --once drains and exits, otherwise
//        polls until SIGINT.
//   xlpd --socket <path>
//        local-socket transport: length-prefixed JSON frames over an
//        AF_UNIX stream socket, one frame per submission document.
//
// Common options:
//   --cache-dir <dir>            result cache location (default xlp-cache)
//   --cache-entries <n>          LRU bound (default 4096)
//   --threads <n>                pool workers / connection workers
//   --request-time-limit <sec>   per-request deadline; a timed-out request
//                                yields an error reply and is not cached
//   --metrics <file.json>        dump the metrics registry on exit
//   --out-dir <dir>              ledger location (default "."); one
//                                xlp-ledger/1 record per request served,
//                                with cache_hit and its lifecycle (dedup
//                                outcome + stage durations)
//   --no-ledger                  disable the ledger
//
// Observability (docs/observability.md, docs/service.md):
//   --series <file.json>         operational time series (requests/sec,
//                                queue depth, in-flight, cache hit rate),
//                                written on exit
//   --series-window <sec>        seconds per series sample (default 1)
//   --stats-json <file.json>     final stats snapshot (the same document
//                                a `stats` request returns), written on
//                                exit
//   --no-observe                 disable latency histograms / series
//
// All exit artifacts (metrics, series, stats snapshot) are flushed on the
// SIGINT drain path too, so a killed daemon leaves complete telemetry.
//
// Chaos testing (docs/service.md, "Failure modes and chaos testing"):
//   --chaos <spec>               arm deterministic fault injection, e.g.
//                                "seed=7,cache-flip=0.05,worker-throw@3";
//                                the XLP_CHAOS environment variable is the
//                                flagless equivalent (the flag wins)
//
// Exit codes: 0 success, 1 domain failure, 2 usage error, 130 when a
// SIGINT/SIGTERM drained the server.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "runctl/control.hpp"
#include "svc/chaos.hpp"
#include "svc/server.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

using namespace xlp;

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitInterrupted = 130;

int usage() {
  std::fprintf(stderr,
               "usage: xlpd (--batch <file> | --queue <dir> | --socket "
               "<path>) [--cache-dir <dir>] [--cache-entries <n>] "
               "[--threads <n>] [--request-time-limit <sec>] [--once] "
               "[--poll-seconds <sec>] [--out <file>] [--metrics <file>] "
               "[--out-dir <dir>] [--no-ledger] [--series <file.json>] "
               "[--series-window <sec>] [--stats-json <file.json>] "
               "[--no-observe] [--chaos <spec>]\n");
  return kExitUsage;
}

runctl::CancelToken g_cancel_token;

int serve(const Args& args) {
  const std::string batch_path = args.get_or("batch", "");
  const std::string queue_dir = args.get_or("queue", "");
  const std::string socket_path = args.get_or("socket", "");
  const int modes = (batch_path.empty() ? 0 : 1) +
                    (queue_dir.empty() ? 0 : 1) +
                    (socket_path.empty() ? 0 : 1);
  if (modes != 1) return usage();

  svc::ServerOptions options;
  options.cache_dir = args.get_or("cache-dir", "xlp-cache");
  options.cache_entries =
      static_cast<std::size_t>(args.get_long("cache-entries", 4096));
  options.threads = args.get_int("threads", 0);
  options.request_time_limit = args.get_double("request-time-limit", 0.0);
  options.cancel = &g_cancel_token;
  if (!args.has("no-ledger"))
    options.ledger_path = (std::filesystem::path(args.get_or("out-dir", ".")) /
                           "ledger.jsonl")
                              .string();

  options.observe = !args.has("no-observe");
  options.series_window = args.get_double("series-window", 1.0);
  const std::string series_path = args.get_or("series", "");
  const std::string stats_path = args.get_or("stats-json", "");
  obs::SeriesRecorder series;
  if (!series_path.empty()) options.series = &series;

  std::string chaos_spec = args.get_or("chaos", "");
  if (chaos_spec.empty())
    if (const char* env = std::getenv("XLP_CHAOS"); env != nullptr)
      chaos_spec = env;
  if (!chaos_spec.empty()) {
    svc::ChaosPolicy::global().configure(chaos_spec);  // throws on bad spec
    std::fprintf(stderr, "xlpd: CHAOS ARMED (%s) — injected faults ahead\n",
                 chaos_spec.c_str());
  }

  svc::Server server(options);
  std::fprintf(stderr, "xlpd: cache %s (%zu entries loaded)\n",
               server.cache().dir().c_str(), server.cache().size());

  if (!batch_path.empty()) {
    const auto text = util::read_file(batch_path);
    if (!text) throw Error(ErrorCode::kIo, "cannot read " + batch_path);
    const std::string reply = server.serve_text(*text);
    if (const std::string out = args.get_or("out", ""); !out.empty()) {
      if (!util::atomic_write_file(out, reply + "\n"))
        throw Error(ErrorCode::kIo, "cannot write " + out);
    } else {
      std::printf("%s\n", reply.c_str());
    }
  } else if (!queue_dir.empty()) {
    const long served = server.run_queue(queue_dir, args.has("once"),
                                         args.get_double("poll-seconds", 0.2));
    std::fprintf(stderr, "xlpd: served %ld submission file%s from %s\n",
                 served, served == 1 ? "" : "s", queue_dir.c_str());
  } else {
    std::fprintf(stderr, "xlpd: listening on %s\n", socket_path.c_str());
    if (!server.run_socket(socket_path))
      throw Error(ErrorCode::kIo, "cannot listen on " + socket_path);
  }

  // Final artifacts are written on every serve() return, including the
  // SIGINT drain (run_queue / run_socket return normally after draining):
  // a killed daemon still leaves complete series / stats files.
  server.flush_observability();
  if (!series_path.empty() && !series.write_json_file(series_path))
    std::fprintf(stderr, "warning: could not write %s\n", series_path.c_str());
  if (!stats_path.empty() &&
      !util::atomic_write_file(stats_path,
                               server.stats_snapshot().dump() + "\n"))
    std::fprintf(stderr, "warning: could not write %s\n", stats_path.c_str());

  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  std::fprintf(stderr, "xlpd: %ld request%s served (%ld executed, %ld cache "
                       "hits)\n",
               server.requests_served(),
               server.requests_served() == 1 ? "" : "s",
               metrics.counter("svc.executed"),
               metrics.counter("svc.cache.hits"));
  if (svc::ChaosPolicy::global().enabled()) {
    const long quarantined = metrics.counter("svc.cache.corrupt");
    std::fprintf(stderr, "xlpd: chaos injected %ld fault%s, quarantined %ld "
                         "cache entr%s\n",
                 svc::ChaosPolicy::global().total_injected(),
                 svc::ChaosPolicy::global().total_injected() == 1 ? "" : "s",
                 quarantined, quarantined == 1 ? "y" : "ies");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  runctl::install_signal_handlers(g_cancel_token);

  int rc;
  try {
    rc = serve(args);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = e.code() == ErrorCode::kUsage ? kExitUsage : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  if (const std::string metrics_path = args.get_or("metrics", "");
      !metrics_path.empty()) {
    if (!obs::MetricsRegistry::global().write_json_file(metrics_path))
      std::fprintf(stderr, "warning: could not write %s\n",
                   metrics_path.c_str());
  }

  if (rc == 0 && g_cancel_token.cancelled() &&
      g_cancel_token.reason() == runctl::RunStatus::kInterrupted)
    rc = kExitInterrupted;
  return rc;
}
