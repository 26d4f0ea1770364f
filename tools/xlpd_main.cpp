// xlpd — the placement-as-a-service batch query server (docs/service.md).
//
// Serves xlp-request/1 documents through a content-addressed result cache:
// identical requests are solved once, answered byte-identically forever
// after (including across restarts — the cache is persisted), and deduped
// while in flight.
//
// One of --batch, --queue or --socket picks the transport; `xlpd --help`
// lists every flag with its default. A flag xlpd does not declare, or a
// value of the wrong type, is a usage error before the server starts. All
// exit artifacts (metrics, series, stats snapshot) are flushed on the
// SIGINT drain path too, so a killed daemon leaves complete telemetry.
//
// Exit codes: 0 success, 1 domain failure, 2 usage error, 130 when a
// SIGINT/SIGTERM drained the server.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
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

using enum Args::Type;

const std::vector<Args::Flag> kFlags = {
    {"batch", kString, "", "serve this submission file, then exit"},
    {"out", kString, "", "--batch: reply file (default stdout)"},
    {"queue", kString, "", "serve <dir>/inbox/ into <dir>/outbox/"},
    {"once", kBool, "", "--queue: drain the inbox once, then exit"},
    {"poll-seconds", kDouble, "0.2", "--queue: inbox poll interval"},
    {"socket", kString, "", "serve frames on this AF_UNIX socket"},
    {"cache-dir", kString, "xlp-cache", "result cache directory"},
    {"cache-entries", kLong, "4096", "result cache LRU bound"},
    {"threads", kInt, "0", "workers (0: XLP_THREADS or all cores)"},
    {"request-time-limit", kDouble, "0", "per-request deadline in seconds"},
    {"out-dir", kString, ".", "directory of ledger.jsonl"},
    {"no-ledger", kBool, "", "append no ledger records"},
    {"metrics", kString, "", "write the metrics registry here on exit"},
    {"series", kString, "", "operational time series, written on exit"},
    {"series-window", kDouble, "1", "seconds per series sample"},
    {"stats-json", kString, "", "final stats snapshot, written on exit"},
    {"no-observe", kBool, "", "record no latency histograms or series"},
    {"chaos", kString, "", "fault injection spec (overrides XLP_CHAOS)"}};

runctl::CancelToken g_cancel_token;

int serve(const Args& args) {
  const std::string batch_path = args.get_string("batch");
  const std::string queue_dir = args.get_string("queue");
  const std::string socket_path = args.get_string("socket");

  svc::ServerOptions options;
  options.cache_dir = args.get_string("cache-dir");
  options.cache_entries =
      static_cast<std::size_t>(args.get_long("cache-entries"));
  options.threads = args.get_int("threads");
  options.request_time_limit = args.get_double("request-time-limit");
  options.cancel = &g_cancel_token;
  if (!args.has("no-ledger"))
    options.ledger_path =
        (std::filesystem::path(args.get_string("out-dir")) / "ledger.jsonl")
            .string();

  options.observe = !args.has("no-observe");
  options.series_window = args.get_double("series-window");
  const std::string series_path = args.get_string("series");
  const std::string stats_path = args.get_string("stats-json");
  obs::SeriesRecorder series;
  if (!series_path.empty()) options.series = &series;

  std::string chaos_spec = args.get_string("chaos");
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
    if (const std::string out = args.get_string("out"); !out.empty()) {
      if (!util::atomic_write_file(out, reply + "\n"))
        throw Error(ErrorCode::kIo, "cannot write " + out);
    } else {
      std::printf("%s\n", reply.c_str());
    }
  } else if (!queue_dir.empty()) {
    const long served = server.run_queue(queue_dir, args.has("once"),
                                         args.get_double("poll-seconds"));
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
  // Every flag is checked against kFlags before the server starts.
  std::optional<Args> parsed;
  try {
    parsed.emplace(argc, argv, kFlags);
    const Args& args = *parsed;
    const int modes = static_cast<int>(!args.get_string("batch").empty()) +
                      static_cast<int>(!args.get_string("queue").empty()) +
                      static_cast<int>(!args.get_string("socket").empty());
    if (!args.help_requested() && (modes != 1 || !args.positional().empty()))
      throw Error(ErrorCode::kUsage,
                  "exactly one of --batch, --queue or --socket");
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s (see xlpd --help)\n", e.what());
    return kExitUsage;
  }
  const Args& args = *parsed;
  if (args.help_requested()) {
    std::printf("usage: xlpd (--batch <file> | --queue <dir> | --socket "
                "<path>) [flags]\nserve xlp-request/1 documents through a "
                "content-addressed result cache\n\n%s",
                args.help().c_str());
    return 0;
  }
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

  if (const std::string metrics_path = args.get_string("metrics");
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
