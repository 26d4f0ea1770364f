// xlp — command-line front end to the express-link placement toolkit.
//
//   xlp solve     --n 8 --c 4 [--method dcsa|onlysa|dnc|exact]
//                 [--moves 10000] [--seed 1]
//   xlp sweep     --n 8 [--moves 10000] [--seed 1] [--base-flit 256]
//   xlp simulate  --links 1-3,3-7 --c 4 [--n 8] [--pattern uniform_random]
//                 [--load 0.02] [--cycles 10000] [--routing xy|yx|o1turn]
//                 [--vec] [--vcs 4] [--seed 1]
//   xlp trace     --out trace.txt [--n 8] [--pattern transpose]
//                 [--load 0.02] [--cycles 10000] [--seed 1]
//   xlp replay    --trace trace.txt --links 1-3,3-7 --c 4
//   xlp appspec   --workload canneal [--n 8] [--moves 2000] [--seed 1]
//   xlp run       --n 8 --c 4 [--moves 10000] [--pattern uniform_random]
//                 [--load 0.02] [--cycles 10000] [--seed 1]
//                 [--checkpoint ck.json] [--checkpoint-every 10000]
//                 [--resume ck.json]
//   xlp faults    --n 8 --c 4 [--kill-express 1] [--at-cycle 2000]
//                 [--recover-at -1] [--trials 10] [--load 0.02]
//                 [--policy drop|drain] [--retries 3] [--rel-weight 0.3]
//                 [--seed 1] [--json campaign.json]
//   xlp bench     [--filter re] [--repeats 5] [--warmup 1] [--out-dir .]
//                 [--profile out.folded] [--deterministic] [--list]
//                 (runs the registered benchmark suites, writes one
//                 schema-versioned BENCH_<suite>.json per suite)
//   xlp report    <run-dir> [--out report.html]
//                 (renders a dependency-free single-file HTML dashboard
//                 from the telemetry files found in <run-dir>)
//   xlp diff      <old> <new> [--threshold 10] [--html diff.html]
//                 (compares two BENCH_*.json files, two directories of
//                 them or two run directories; a tracked metric worse by
//                 more than --threshold percent fails, and so does any
//                 difference from a --deterministic document. Exit 0
//                 clean, 1 failed rows, 2 unreadable or empty inputs)
//   xlp submit    (--file batch.json | --sweep-n 8 [--method dcsa]
//                 [--moves 10000] [--base-flit 256] [--seed 1])
//                 (--queue <dir> [--wait 60] [--name <id>] | --socket <path>)
//                 [--retries 5] [--retry-base-ms 50]
//                 (submits a request batch to a running `xlpd` — see
//                 docs/service.md — and prints the reply document; a
//                 per-request summary with wall time and HIT/MISS markers
//                 goes to stderr, and the exit code is 1 when any request
//                 in the batch errored. Socket transport errors and
//                 retryable error replies are resubmitted with bounded
//                 exponential backoff — which also covers racing a daemon
//                 that has not bound its socket yet)
//   xlp top       <socket> [--interval 1] [--once] [--retries 5]
//                 [--retry-base-ms 50]
//                 (live refreshing view of a running `xlpd`: uptime,
//                 request counts, dedup funnel, cache occupancy, worker
//                 utilization and queue-wait/execution/end-to-end latency
//                 quantiles, polled via `stats` requests)
//
// Telemetry (see docs/observability.md):
//   --trace <file.jsonl>   structured JSONL trace (SA cooling steps on
//                          solve/run, simulator progress + channel heatmap
//                          on simulate/run); not available on `replay`,
//                          whose --trace names the input packet trace
//   --metrics <file.json>  dump the global metrics registry after the run
//   --stats-json <file>    full SimStats serialization (simulate/replay/run)
//   --series <file.json>   bounded-memory time-series recording (simulator
//                          cycle telemetry on simulate/run, SA cooling
//                          trajectories on solve/run), schema xlp-series/1
//   --profile-json <file>  enable the hierarchical profiler and dump the
//                          merged scope tree as JSON after the run
//
// Run ledger:
//   every subcommand appends one JSONL record to <out-dir>/ledger.jsonl
//   (run id = content hash over the canonical scenario params; plus
//   provenance, wall time, exit status and artifact paths). solve and
//   simulate run an svc::Request (docs/service.md; --chains and --vec are
//   its `chains` and `vec` fields) and record it as their params, so
//   their run id is the request id xlpd uses for the same work; run nests
//   its solve request; other subcommands add `subcommand` and `seed`.
//   --out-dir <dir> relocates the ledger (default "."), --no-ledger
//   disables it.
//
// Parallel execution (see docs/parallelism.md):
//   --threads <N>          pool workers for portfolios (`solve --chains`),
//                          sweeps and fault campaigns; overrides the
//                          XLP_THREADS environment variable (default: all
//                          hardware threads). Determinism contract: results
//                          and checkpoints are byte-identical for every N —
//                          --threads 1 just runs them sequentially.
//
// Run control (see docs/resilience.md):
//   --time-limit <seconds>     wall-clock budget; searches and simulations
//                              stop at the deadline and report best-so-far
//   --checkpoint <file.json>   (solve/run) periodically persist annealer
//                              state, atomically, plus once on any early stop
//   --checkpoint-every <moves> sink cadence in SA moves (default 10000)
//   --resume <file.json>       (run) continue from a checkpoint; with the
//                              same seed the result is bit-identical to an
//                              uninterrupted run
//   SIGINT/SIGTERM request a cooperative stop: the current best solution is
//   reported (and checkpointed) before exit; a second signal kills outright.
//
// Every subcommand prints a short human-readable report. Exit codes:
//   0    success (including runs stopped gracefully by --time-limit)
//   1    domain failure (I/O, malformed input, simulation error)
//   2    usage error (unknown command/flag values, bad preconditions)
//   130  interrupted by SIGINT/SIGTERM (best-effort results were saved)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "core/app_specific.hpp"
#include "harness.hpp"
#include "suites.hpp"
#include "core/c_sweep.hpp"
#include "core/drivers.hpp"
#include "exp/fault_campaign.hpp"
#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "obs/diff.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "power/model.hpp"
#include "runctl/checkpoint.hpp"
#include "runctl/control.hpp"
#include "obs/canonical.hpp"
#include "sim/simulator.hpp"
#include "sim/stats_json.hpp"
#include "svc/client.hpp"
#include "svc/request.hpp"
#include "svc/wire.hpp"
#include "topo/builders.hpp"
#include "topo/render.hpp"
#include "traffic/app_models.hpp"
#include "traffic/trace.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace xlp;

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitInterrupted = 130;

int usage() {
  std::fprintf(stderr,
               "usage: xlp <solve|sweep|simulate|trace|replay|appspec|run|"
               "faults|bench|report|diff|submit|top> "
               "[options]\n(see the header of tools/xlp_cli.cpp for the "
               "full option list)\n");
  return kExitUsage;
}

/// What the running subcommand contributes to its run-ledger record.
/// Commands fill the scenario identity (subcommand, canonical params,
/// seed) up front and register artifact paths as they write them; main()
/// appends the finished record once, after the command returns. File
/// scope, like the cancel token: the cmd_* functions only see Args.
struct LedgerContext {
  bool filled = false;
  obs::LedgerEntry entry;

  /// Declares the scenario identity; the run id hashes `params` alone, so
  /// they hold only inputs that define the run (never output paths, thread
  /// counts or time limits). solve/simulate pass their request document.
  void identify(std::string subcommand, obs::Json params,
                std::uint64_t seed) {
    filled = true;
    entry.subcommand = std::move(subcommand);
    entry.params = std::move(params);
    entry.seed = seed;
  }

  /// identify() for the other subcommands: params gain subcommand + seed.
  void describe(const std::string& subcommand, obs::Json params,
                std::uint64_t seed) {
    params.set("subcommand", subcommand).set("seed", static_cast<long>(seed));
    identify(subcommand, std::move(params), seed);
  }

  void artifact(const std::string& path) {
    if (!path.empty()) entry.artifacts.push_back(path);
  }
};

LedgerContext g_ledger;

/// Process-wide cancellation token, flipped by SIGINT/SIGTERM. Lives at
/// file scope so the async-signal-safe handler can reach it.
runctl::CancelToken g_cancel_token;

/// Builds the RunControl every command threads into its loops: the shared
/// signal token plus the optional `--time-limit <seconds>` deadline.
runctl::RunControl make_run_control(const Args& args) {
  runctl::Deadline deadline;
  const double limit = args.get_double("time-limit", 0.0);
  if (limit > 0.0) deadline = runctl::Deadline::after_seconds(limit);
  return runctl::RunControl(&g_cancel_token, deadline);
}

/// Prints (and traces) how a search or simulation phase ended; quiet for
/// normal completion. A stopped phase also names `checkpoint`, the state
/// it saved (when non-empty), as the file to resume from.
void report_status(runctl::RunStatus status, const char* phase,
                   obs::TraceSink& sink, const std::string& checkpoint = {}) {
  if (sink.enabled())
    sink.emit("run.status", obs::Json::object()
                                .set("phase", phase)
                                .set("status", runctl::to_string(status)));
  if (status == runctl::RunStatus::kCompleted) return;
  std::printf("  status:    %s stopped early (%s); results are "
              "best-so-far\n",
              phase, runctl::to_string(status));
  if (checkpoint.empty()) return;
  std::printf("  checkpoint: %s (resume with `xlp run --resume %s`)\n",
              checkpoint.c_str(), checkpoint.c_str());
  g_ledger.artifact(checkpoint);
}

/// Runs `parse` over flag values (validating a request built from flags,
/// parsing --links). A kParse error it raises is a bad flag value, so it
/// is rethrown as kUsage and the process exits 2.
template <typename Parse>
auto from_flags(Parse&& parse) {
  try {
    return parse();
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kParse) throw;
    throw Error(ErrorCode::kUsage, e.message());
  }
}

/// Owns the optional `--trace <file.jsonl>` output: the stream plus the
/// JSONL sink writing to it. When the flag is absent every accessor
/// degrades to the null sink, so instrumented paths cost nothing.
class TraceOutput {
 public:
  explicit TraceOutput(const Args& args) : path_(args.get_or("trace", "")) {
    if (path_.empty()) return;
    util::ensure_parent_dir(path_);
    stream_.open(path_);
    XLP_REQUIRE(stream_.good(), "cannot open " + path_);
    sink_ = std::make_unique<obs::JsonlTraceSink>(stream_);
  }

  [[nodiscard]] obs::TraceSink& sink() {
    return sink_ ? static_cast<obs::TraceSink&>(*sink_)
                 : obs::null_trace_sink();
  }
  /// For SimConfig::trace, which treats nullptr as "off".
  [[nodiscard]] obs::TraceSink* sink_or_null() { return sink_.get(); }

  void report() const {
    if (sink_) {
      std::printf("  trace: %ld events -> %s\n", sink_->events_written(),
                  path_.c_str());
      g_ledger.artifact(path_);
    }
  }

 private:
  std::string path_;
  std::ofstream stream_;
  std::unique_ptr<obs::JsonlTraceSink> sink_;
};

/// Owns the optional `--series <file.json>` recorder: commands hand the
/// recorder (or nullptr, costing a single branch at each instrumentation
/// site) to the simulator / annealer, and report() writes the document
/// once at the end.
class SeriesOutput {
 public:
  explicit SeriesOutput(const Args& args)
      : path_(args.get_or("series", "")) {}

  /// For SimConfig::series / SaParams::series, which treat nullptr as off.
  [[nodiscard]] obs::SeriesRecorder* recorder_or_null() {
    return path_.empty() ? nullptr : &recorder_;
  }

  void report() {
    if (path_.empty()) return;
    std::printf("  series: %zu series -> %s %s\n", recorder_.names().size(),
                path_.c_str(),
                recorder_.write_json_file(path_) ? "written" : "NOT WRITTEN");
    g_ledger.artifact(path_);
  }

 private:
  std::string path_;
  obs::SeriesRecorder recorder_;
};

/// Observer that forwards every SA cooling step to the trace sink as an
/// `sa.cool` event; empty (and free) when tracing is off.
core::SaObserver sa_trace_observer(obs::TraceSink& sink) {
  if (!sink.enabled()) return {};
  return [&sink](const core::SaCoolingStep& step) {
    sink.emit("sa.cool",
              obs::Json::object()
                  .set("phase", "anneal")
                  .set("step", step.step)
                  .set("moves", step.moves_done)
                  .set("temperature", step.temperature)
                  .set("current", step.current_value)
                  .set("best", step.best_value)
                  .set("acceptance", step.window_acceptance_rate()));
  };
}

void write_stats_if_requested(const Args& args, const sim::SimStats& stats) {
  const std::string path = args.get_or("stats-json", "");
  if (path.empty()) return;
  std::printf("  stats-json: %s %s\n", path.c_str(),
              sim::write_stats_json(stats, path) ? "written" : "NOT WRITTEN");
  g_ledger.artifact(path);
}

int cmd_solve(const Args& args) {
  svc::Request request;
  request.n = args.get_int("n", 8);
  request.link_limit = args.get_int("c", 4);
  request.method = args.get_or("method", "dcsa");
  request.moves = args.get_long("moves", 10000);
  request.chains = args.get_int("chains", 1);
  request.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  g_ledger.identify("solve", request.to_json(), request.seed);
  from_flags([&] { request.validate(); });

  TraceOutput trace(args);
  SeriesOutput series(args);
  runctl::RunControl control = make_run_control(args);
  const std::string checkpoint_path = args.get_or("checkpoint", "");
  core::SaParams hooks;
  hooks.observer = sa_trace_observer(trace.sink());
  hooks.series = series.recorder_or_null();
  hooks.control = &control;
  hooks.checkpoint_every_moves = args.get_long("checkpoint-every", 10000);
  long portfolio_evaluations = -1;
  const core::PlacementResult result =
      svc::solve(request, hooks, checkpoint_path, &portfolio_evaluations);
  if (portfolio_evaluations >= 0)
    std::printf("portfolio of %d chains finished in %.3f s (%ld evals)\n",
                request.chains, result.seconds, portfolio_evaluations);

  std::printf("P̄(%d,%d) via %s\n", request.n, request.link_limit,
              result.method.c_str());
  std::printf("  placement: %s\n", result.placement.to_string().c_str());
  std::printf("%s", topo::render_row(result.placement).c_str());
  std::printf("  objective: %.4f cycles (plain row: %.4f)\n", result.value,
              core::RowObjective(request.n, route::HopWeights{})
                  .evaluate(topo::RowTopology(request.n)));
  std::printf("  cost:      %ld evaluations, %.3f s\n", result.evaluations,
              result.seconds);
  report_status(result.status, "solve", trace.sink(), checkpoint_path);
  trace.report();
  series.report();
  return 0;
}

int cmd_sweep(const Args& args) {
  const int n = args.get_int("n", 8);
  const int height = args.get_int("height", n);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(args.get_long("moves", 10000));
  options.base_flit_bits = args.get_int("base-flit", topo::kBaseFlitBits);
  options.latency = latency::LatencyParams::zero_load();
  g_ledger.describe("sweep",
                    obs::Json::object()
                        .set("n", n)
                        .set("height", height)
                        .set("moves", options.sa.total_moves)
                        .set("base_flit", options.base_flit_bits),
                    seed);
  Rng rng(seed);
  const auto points = core::sweep_link_limits(n, height, options, rng);

  Table table({"C", "flit", "total", "head", "serialization", "placement"});
  for (const auto& p : points)
    table.add_row({std::to_string(p.link_limit),
                   std::to_string(p.design.flit_bits()),
                   Table::fmt(p.breakdown.total()),
                   Table::fmt(p.breakdown.head),
                   Table::fmt(p.breakdown.serialization),
                   p.placement.placement.to_string()});
  table.print(std::cout);
  const auto& best = points[core::best_point(points)];
  std::printf("best: C=%d at %.2f cycles\n", best.link_limit,
              best.breakdown.total());
  return 0;
}

int cmd_simulate(const Args& args) {
  svc::Request request;
  request.kind = svc::RequestKind::kSimulate;
  request.n = args.get_int("n", 8);
  request.link_limit = args.get_int("c", 4);
  request.links = args.get_or("links", "");
  request.workload = args.get_or("pattern", "uniform_random");
  request.load = args.get_double("load", 0.02);
  request.cycles = args.get_long("cycles", 10000);
  request.routing = args.get_or("routing", "xy");
  request.vcs = args.get_int("vcs", 4);
  request.vec = args.has("vec");
  request.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  g_ledger.identify("simulate", request.to_json(), request.seed);
  const topo::ExpressMesh design = from_flags([&] {
    request.validate();
    return svc::design_of(request);
  });

  TraceOutput trace(args);
  SeriesOutput series(args);
  runctl::RunControl control = make_run_control(args);
  sim::SimConfig hooks;
  hooks.trace = trace.sink_or_null();
  hooks.series = series.recorder_or_null();
  hooks.control = &control;
  const auto stats = svc::simulate(request, hooks);
  std::printf("design %s C=%d (%d-bit flits), %s @ %.3f pkt/node/cycle, "
              "routing %s%s\n",
              design.row(0).to_string().c_str(), request.link_limit,
              design.flit_bits(), request.workload.c_str(), request.load,
              request.routing.c_str(), request.vec ? " +VEC" : "");
  std::printf("  latency: avg %.2f  p50 %.0f  p95 %.0f  p99 %.0f  max %.0f "
              "cycles\n",
              stats.avg_latency, stats.p50_latency, stats.p95_latency,
              stats.p99_latency, stats.max_latency);
  std::printf("  throughput %.4f pkt/node/cycle, contention %.2f "
              "cycles/hop, hops %.2f, drained %s\n",
              stats.throughput_packets_per_node_cycle,
              stats.avg_contention_per_hop, stats.avg_hops,
              stats.drained ? "yes" : "NO");
  const auto power = power::evaluate_power(design, stats.activity,
                                           hooks.buffer_bits_per_router);
  std::printf("  power %.3f W (%.3f dynamic, %.3f static)\n", power.total(),
              power.dynamic_total(), power.static_total());
  exp::warn_if_undrained(stats, "xlp simulate");
  report_status(stats.status, "simulate", trace.sink());
  write_stats_if_requested(args, stats);
  trace.report();
  series.report();
  return 0;
}

int cmd_trace(const Args& args) {
  const int n = args.get_int("n", 8);
  const std::string out_path = args.get_or("out", "");
  XLP_REQUIRE(!out_path.empty(), "--out <file> is required");
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const std::string pattern = args.get_or("pattern", "transpose");
  const double load = args.get_double("load", 0.02);
  const long cycles = args.get_long("cycles", 10000);
  g_ledger.describe("trace",
                    obs::Json::object()
                        .set("n", n)
                        .set("pattern", pattern)
                        .set("load", load)
                        .set("cycles", cycles),
                    seed);
  g_ledger.artifact(out_path);
  const auto demand = traffic::resolve_workload(pattern, n, load);
  Rng rng(seed);
  const auto trace = traffic::Trace::sample(
      demand, latency::PacketMix::paper_default(), cycles, rng);
  std::ostringstream out;
  trace.save(out);
  if (!util::atomic_write_file(out_path, out.str()))
    throw Error(ErrorCode::kIo, "cannot write " + out_path);
  std::printf("wrote %zu packets over %ld cycles to %s\n",
              trace.packets().size(), trace.duration(), out_path.c_str());
  return 0;
}

int cmd_replay(const Args& args) {
  const std::string path = args.get_or("trace", "");
  XLP_REQUIRE(!path.empty(), "--trace <file> is required");
  std::ifstream in(path);
  XLP_REQUIRE(in.good(), "cannot open " + path);
  const auto trace = traffic::Trace::load(in);

  const int c = args.get_int("c", 4);
  const topo::RowTopology row(trace.side(), from_flags([&] {
    return topo::parse_links(args.get_or("links", ""));
  }));
  const topo::ExpressMesh design = topo::make_design(row, c);
  g_ledger.describe("replay",
                    obs::Json::object()
                        .set("trace", path)
                        .set("links", args.get_or("links", ""))
                        .set("c", c),
                    0);
  runctl::RunControl control = make_run_control(args);
  sim::SimConfig replay_config;
  replay_config.control = &control;
  const auto stats = exp::replay_trace(design, trace, replay_config);
  std::printf("replayed %ld packets on %s (C=%d): avg %.2f cycles, p99 "
              "%.0f, drained %s\n",
              stats.packets_finished, row.to_string().c_str(), c,
              stats.avg_latency, stats.p99_latency,
              stats.drained ? "yes" : "NO");
  exp::warn_if_undrained(stats, "xlp replay");
  write_stats_if_requested(args, stats);
  return 0;
}

/// End-to-end instrumented flow: optimize a placement with D&C_SA (tracing
/// every cooling step), then simulate the resulting design (tracing
/// progress and the channel heatmap) — the one-command way to produce a
/// full telemetry bundle for an n x n platform. With --resume the solve
/// phase continues a saved checkpoint (single-chain or portfolio) instead
/// of starting fresh; if the search is stopped early again, the
/// simulation phase is skipped and the refreshed checkpoint reported.
int cmd_run(const Args& args) {
  TraceOutput trace(args);
  SeriesOutput series(args);
  runctl::RunControl control = make_run_control(args);
  const std::string checkpoint_path = args.get_or("checkpoint", "");
  const std::string resume_path = args.get_or("resume", "");

  svc::Request solve_request;
  solve_request.n = args.get_int("n", 8);
  solve_request.link_limit = args.get_int("c", 4);
  solve_request.moves = args.get_long("moves", 10000);
  solve_request.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const std::string pattern = args.get_or("pattern", "uniform_random");
  const double load = args.get_double("load", 0.02);
  const long cycles = args.get_long("cycles", 10000);
  const auto identify = [&] {
    g_ledger.identify("run",
                      obs::Json::object()
                          .set("solve", solve_request.to_json())
                          .set("pattern", pattern)
                          .set("load", load)
                          .set("cycles", cycles)
                          .set("resumed", !resume_path.empty()),
                      solve_request.seed);
  };
  identify();  // before loading: a checkpoint that fails to load is ledgered
  // On resume the checkpoint names the P(n, C) instance (and a
  // portfolio's seed): the solve, the simulate phase and the ledger record
  // all take it from there, not from the flags.
  std::optional<runctl::CheckpointFile> resume;
  if (!resume_path.empty()) {
    resume = runctl::load_checkpoint_file(resume_path);
    solve_request = svc::resumed_request(*resume, solve_request);
    identify();
  }
  from_flags([&] { solve_request.validate(); });

  core::SaParams hooks;
  hooks.observer = sa_trace_observer(trace.sink());
  hooks.series = series.recorder_or_null();
  hooks.control = &control;
  hooks.checkpoint_every_moves = args.get_long("checkpoint-every", 10000);
  // Where the checkpoint is (re)written: an explicit --checkpoint wins; a
  // resumed run otherwise keeps writing the file it resumed from.
  const std::string saved =
      resume && checkpoint_path.empty() ? resume_path : checkpoint_path;
  long portfolio_evaluations = -1;
  const core::PlacementResult result =
      svc::solve(solve_request, hooks, saved, &portfolio_evaluations,
                 resume ? &*resume : nullptr);
  if (resume && resume->sa)
    std::printf("resumed %s from %s at move %ld/%ld\n",
                result.method.c_str(), resume_path.c_str(),
                resume->sa->next_move, resume->sa->schedule.total_moves);
  else if (resume)
    std::printf("resumed portfolio of %d chains from %s (%.3f s, %ld "
                "evals)\n",
                solve_request.chains, resume_path.c_str(), result.seconds,
                portfolio_evaluations);
  std::printf("P̄(%d,%d) via %s: %s at %.4f cycles (%ld evals, %.3f s)\n",
              solve_request.n, solve_request.link_limit,
              result.method.c_str(), result.placement.to_string().c_str(),
              result.value, result.evaluations, result.seconds);
  report_status(result.status, "solve", trace.sink(), saved);
  if (result.status != runctl::RunStatus::kCompleted) {
    // The search was cut short: skip the simulation phase (its input is
    // only the best-so-far placement).
    std::printf("  simulation skipped (solve phase did not complete)\n");
    trace.report();
    series.report();
    return 0;
  }

  svc::Request sim_request = solve_request;
  sim_request.kind = svc::RequestKind::kSimulate;
  sim_request.workload = pattern;
  sim_request.load = load;
  sim_request.cycles = cycles;
  sim_request.links = topo::format_links(result.placement);
  from_flags([&] { sim_request.validate(); });
  sim::SimConfig sim_hooks;
  sim_hooks.trace = trace.sink_or_null();
  sim_hooks.series = series.recorder_or_null();
  sim_hooks.control = &control;
  const auto stats = svc::simulate(sim_request, sim_hooks);
  std::printf("simulated %s @ %.3f pkt/node/cycle: avg %.2f  p95 %.0f  p99 "
              "%.0f cycles, ci95 ±%.2f, drained %s\n",
              sim_request.workload.c_str(), sim_request.load,
              stats.avg_latency, stats.p95_latency, stats.p99_latency,
              stats.ci95_latency, stats.drained ? "yes" : "NO");
  exp::warn_if_undrained(stats, "xlp run");
  report_status(stats.status, "simulate", trace.sink());
  write_stats_if_requested(args, stats);
  trace.report();
  series.report();
  return 0;
}

/// Monte Carlo resilience campaign: Mesh, HFB, D&C_SA and a
/// reliability-aware D&C_SA under random express-link failures injected
/// mid-run (see docs/fault_tolerance.md).
int cmd_faults(const Args& args) {
  exp::FaultCampaignConfig config;
  config.n = args.get_int("n", 8);
  config.link_limit = args.get_int("c", 4);
  config.kill_links = args.get_int("kill-express", 1);
  config.trials = args.get_int("trials", 10);
  config.fault_cycle = args.get_long("at-cycle", 2000);
  config.recover_cycle = args.get_long("recover-at", -1);
  config.load = args.get_double("load", 0.02);
  config.max_retries = args.get_int("retries", 3);
  config.reliability_weight = args.get_double("rel-weight", 0.3);
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const std::string policy = args.get_or("policy", "drop");
  if (policy == "drain") config.policy = sim::FaultPolicy::kDrainThenSwap;
  else XLP_REQUIRE(policy == "drop", "--policy must be drop or drain");
  g_ledger.describe("faults",
                    obs::Json::object()
                        .set("n", config.n)
                        .set("c", config.link_limit)
                        .set("kill_express", config.kill_links)
                        .set("at_cycle", config.fault_cycle)
                        .set("recover_at", config.recover_cycle)
                        .set("trials", config.trials)
                        .set("load", config.load)
                        .set("policy", policy)
                        .set("retries", config.max_retries)
                        .set("rel_weight", config.reliability_weight),
                    config.seed);

  TraceOutput trace(args);
  config.trace = trace.sink_or_null();

  const exp::FaultCampaignResult result = exp::run_fault_campaign(config);

  const std::string recover =
      config.recover_cycle >= 0
          ? ", recover at " + std::to_string(config.recover_cycle)
          : "";
  std::printf("fault campaign: %dx%d, C=%d, kill %d express link%s at cycle "
              "%ld%s, %d trial%s, policy %s\n",
              config.n, config.n, config.link_limit, config.kill_links,
              config.kill_links == 1 ? "" : "s", config.fault_cycle,
              recover.c_str(), config.trials, config.trials == 1 ? "" : "s",
              policy.c_str());
  Table table({"design", "baseline", "degraded", "worst", "lost",
               "unroutable"});
  for (const auto& d : result.designs)
    table.add_row({d.name, Table::fmt(d.baseline_latency),
                   Table::fmt(d.degraded_mean), Table::fmt(d.degraded_worst),
                   std::to_string(d.lost_total),
                   std::to_string(d.unroutable_total)});
  table.print(std::cout);
  std::printf("  latencies in cycles; degraded = mean over trials after "
              "rerouting\n");

  if (const std::string json_path = args.get_or("json", "");
      !json_path.empty()) {
    if (!util::atomic_write_file(json_path, result.to_json().dump() + "\n"))
      throw Error(ErrorCode::kIo, "cannot write " + json_path);
    std::printf("  json: %s written\n", json_path.c_str());
    g_ledger.artifact(json_path);
  }
  trace.report();
  return 0;
}

int cmd_appspec(const Args& args) {
  const int n = args.get_int("n", 8);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const std::string workload = args.get_or("workload", "canneal");
  const double load = args.get_double("load", 0.02);
  const long moves = args.get_long("moves", 2000);
  g_ledger.describe("appspec",
                    obs::Json::object()
                        .set("n", n)
                        .set("workload", workload)
                        .set("load", load)
                        .set("moves", moves),
                    seed);
  const auto demand = traffic::resolve_workload(workload, n, load);
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(moves);
  options.latency = latency::LatencyParams::zero_load();
  options.report_traffic = demand;
  Rng rng(seed);
  const auto result = core::solve_app_specific(demand, options, rng);
  std::printf("app-specific design: C=%d, weighted latency %.2f cycles\n",
              result.link_limit, result.breakdown.total());
  for (int y = 0; y < n; ++y)
    std::printf("  row %2d: %s\n", y,
                result.design.row(y).to_string().c_str());
  for (int x = 0; x < n; ++x)
    std::printf("  col %2d: %s\n", x,
                result.design.col(x).to_string().c_str());
  return 0;
}

int cmd_bench(const Args& args) {
  bench::register_all_suites();
  bench::RunnerOptions options;
  options.filter = args.get_or("filter", "");
  options.repeats = std::max(1, args.get_int("repeats", 5));
  options.warmup = std::max(0, args.get_int("warmup", 1));
  options.out_dir = args.get_or("out-dir", ".");
  options.deterministic = args.has("deterministic");
  options.provenance =
      obs::Provenance::collect(static_cast<std::uint64_t>(
          args.get_long("seed", 0)));
  g_ledger.describe("bench",
                    obs::Json::object()
                        .set("filter", options.filter)
                        .set("repeats", options.repeats)
                        .set("warmup", options.warmup)
                        .set("deterministic", options.deterministic),
                    options.provenance.seed);
  return bench::run_and_report(options, args.get_or("profile", ""),
                               args.has("list"));
}

/// Renders the single-file HTML dashboard for a run directory: line charts
/// for every recorded series (xlp-series/1 documents plus series derived
/// from JSONL traces), the channel-utilization heatmap, stats, profiler
/// and ledger tables. The output embeds everything inline — no scripts, no
/// external resources — so it can be archived or attached to CI artifacts
/// as one file.
int cmd_report(const Args& args) {
  XLP_REQUIRE(!args.positional().empty(),
              "usage: xlp report <run-dir> [--out <file.html>]");
  const std::string dir = args.positional().front();
  XLP_REQUIRE(std::filesystem::is_directory(dir),
              "not a directory: " + dir);
  g_ledger.describe("report", obs::Json::object().set("dir", dir), 0);

  const obs::RunDirData data = obs::collect_run_dir(dir);
  const std::string out_path = args.get_or(
      "out", (std::filesystem::path(dir) / "report.html").string());
  const std::string html = obs::render_report_html(data);
  if (!util::atomic_write_file(out_path, html))
    throw Error(ErrorCode::kIo, "cannot write " + out_path);
  g_ledger.artifact(out_path);

  std::size_t chart_count = data.trace_series.size();
  if (data.series)
    chart_count += obs::chart_series_from_json(*data.series).size();
  std::printf("report: %s (%zu charts%s%s%s, %zu ledger records) -> %s\n",
              dir.c_str(), chart_count, data.stats ? ", stats" : "",
              data.heatmap ? ", heatmap" : "",
              data.profile ? ", profile" : "", data.ledger.size(),
              out_path.c_str());
  return 0;
}

/// Compares two outputs through obs::diff_inputs. Its exit 1 means failed
/// rows, so an input it cannot compare exits 2, not the CLI's usual 1.
int cmd_diff(const Args& args) {
  XLP_REQUIRE(args.positional().size() == 2,
              "usage: xlp diff <old> <new> [--threshold <pct>] "
              "[--html <file>]");
  const double threshold = args.get_double("threshold", 10.0);
  XLP_REQUIRE(threshold >= 0.0, "option --threshold needs a percentage >= 0");
  try {
    return obs::diff_inputs(args.positional()[0], args.positional()[1],
                            threshold, args.get_or("html", ""));
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  }
}

/// One stderr summary line per reply of a decoded reply document: request
/// id, HIT/MISS marker, ok/error, and the wall time when the caller
/// measured one. `index` numbers the first reply out of `total`. Adds the
/// document's cache hits and error replies to the running tallies.
void summarize_replies(const std::string& reply_text, std::size_t index,
                       std::size_t total, double wall_seconds, long& hits,
                       long& errors) {
  char wall[32] = "";
  if (wall_seconds >= 0.0)
    std::snprintf(wall, sizeof(wall), " %.1fms", wall_seconds * 1e3);
  for (const svc::Reply& reply : svc::decode_replies(reply_text)) {
    const std::string error_text =
        reply.ok ? "" : reply.error_kind + ": " + reply.payload_text;
    std::fprintf(stderr, "  [%zu/%zu] %s %s%s%s%s\n", ++index, total,
                 reply.request_id.c_str(), reply.cache_hit ? "HIT " : "MISS",
                 wall, reply.ok ? " ok" : " ERROR: ", error_text.c_str());
    if (reply.cache_hit) ++hits;
    if (!reply.ok) ++errors;
  }
}

/// Client side of the service (docs/service.md): builds or loads a
/// submission document and sends it to a running `xlpd` over the file
/// queue or the local socket, then prints the reply document. The
/// canonical driver-as-client flow is `--sweep-n`, which submits the same
/// per-limit solves `xlp sweep` would run in-process — resubmitting the
/// sweep is answered from the server's cache without re-annealing.
///
/// The reply document goes to stdout (pipeable); a per-request summary
/// with HIT/MISS markers goes to stderr. Over the socket, each request of
/// an array submission is sent as its own frame on one connection, so
/// every summary line carries that request's true wall time. Exits 1 when
/// any request in the batch errored.
int cmd_submit(const Args& args) {
  std::string text;
  std::optional<obs::Json> doc;
  if (const std::string file = args.get_or("file", ""); !file.empty()) {
    const auto loaded = util::read_file(file);
    XLP_REQUIRE(loaded.has_value(), "cannot read " + file);
    text = *loaded;
    doc = obs::Json::parse(text);
    XLP_REQUIRE(doc.has_value(), "not valid JSON: " + file);
  } else {
    const int n = args.get_int("sweep-n", 0);
    XLP_REQUIRE(n > 0, "either --file <batch.json> or --sweep-n <n>");
    const auto batch = svc::sweep_batch(
        n, args.get_or("method", "dcsa"), args.get_long("moves", 10000),
        static_cast<std::uint64_t>(args.get_long("seed", 1)),
        args.get_int("base-flit", topo::kBaseFlitBits));
    text = svc::batch_to_text(batch);
    doc = obs::Json::parse(text);
  }
  const long request_count =
      doc->is_array() ? static_cast<long>(doc->size()) : 1;

  const std::string queue_dir = args.get_or("queue", "");
  const std::string socket_path = args.get_or("socket", "");
  XLP_REQUIRE(queue_dir.empty() != socket_path.empty(),
              "exactly one of --queue <dir> or --socket <path>");
  g_ledger.describe("submit",
                    obs::Json::object()
                        .set("transport", queue_dir.empty() ? "socket"
                                                            : "queue")
                        .set("requests", request_count),
                    static_cast<std::uint64_t>(args.get_long("seed", 1)));

  svc::RetryPolicy retry;
  retry.retries = args.get_int("retries", 5);
  retry.base_ms = args.get_double("retry-base-ms", 50.0);
  retry.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));

  Stopwatch wall;
  std::string reply;
  long errors = 0;
  long hits = 0;

  if (!socket_path.empty() && doc->is_array()) {
    // One frame per request over a single connection: every request gets
    // an individually measured round-trip wall time, and the concatenated
    // replies are byte-identical to a whole-batch submission (duplicates
    // become result-cache hits instead of within-batch dedup hits, which
    // serialize the same).
    svc::SocketClient client(socket_path, retry);
    if (!client.ok())
      throw Error(ErrorCode::kIo, "no xlpd reachable at " + socket_path);
    reply = "[";
    for (std::size_t i = 0; i < doc->size(); ++i) {
      Stopwatch request_wall;
      auto answered = client.submit_with_retry(doc->at(i).dump());
      if (!answered)
        throw Error(ErrorCode::kIo,
                    "connection to " + socket_path + " broke mid-batch "
                    "and retries were exhausted");
      const double seconds = request_wall.seconds();
      if (i > 0) reply += ",";
      reply += *answered;
      summarize_replies(*answered, i, doc->size(), seconds, hits, errors);
    }
    reply += "]";
  } else {
    if (!socket_path.empty()) {
      svc::SocketClient client(socket_path, retry);
      std::optional<std::string> answered;
      if (client.ok()) answered = client.submit_with_retry(text);
      if (!answered)
        throw Error(ErrorCode::kIo, "no xlpd reachable at " + socket_path);
      reply = std::move(*answered);
    } else {
      // Name the submission by its content hash so resubmitting the same
      // batch never piles up distinct queue files.
      const std::string name =
          args.get_or("name", obs::fnv1a64_hex(text));
      if (!svc::queue_submit(queue_dir, name, text))
        throw Error(ErrorCode::kIo, "cannot submit into " + queue_dir);
      // Throws with request / elapsed / inbox-state context on timeout.
      reply = svc::queue_wait(queue_dir, name,
                              args.get_double("wait", 60.0));
    }
    // Whole-document transports: summarize each reply element without a
    // per-request wall time (the batch is answered as one unit).
    summarize_replies(reply, 0, static_cast<std::size_t>(request_count), -1.0,
                      hits, errors);
  }

  std::printf("%s\n", reply.c_str());
  std::fprintf(stderr,
               "submit: %ld request%s, %ld cache hit%s, %ld error%s in "
               "%.1fms\n",
               request_count, request_count == 1 ? "" : "s", hits,
               hits == 1 ? "" : "s", errors, errors == 1 ? "" : "s",
               wall.seconds() * 1e3);
  return errors > 0 ? 1 : 0;
}

/// Formats a nanosecond latency into a compact human unit.
std::string format_ns(double ns) {
  char buf[32];
  if (ns < 1e3) std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  else if (ns < 1e6) std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  else if (ns < 1e9) std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
  else std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  return buf;
}

/// Live refreshing terminal view of a running socket `xlpd`, rendered
/// from the server's `stats` snapshot (docs/service.md): uptime, request
/// and dedup-funnel counts, cache occupancy, worker utilization, and
/// p50/p90/p99/max for the queue-wait / execution / end-to-end latency
/// histograms. `--once` prints a single snapshot and exits (scripting /
/// smoke tests); otherwise the view refreshes every `--interval` seconds
/// until SIGINT.
int cmd_top(const Args& args) {
  XLP_REQUIRE(!args.positional().empty(),
              "usage: xlp top <socket> [--interval <sec>] [--once] "
              "[--retries <n>] [--retry-base-ms <ms>]");
  const std::string socket_path = args.positional().front();
  const double interval = std::max(args.get_double("interval", 1.0), 0.05);
  const bool once = args.has("once");
  const std::string probe = svc::stats_request_text();
  svc::RetryPolicy retry;
  retry.retries = args.get_int("retries", 5);
  retry.base_ms = args.get_double("retry-base-ms", 50.0);

  const auto num = [](const obs::Json* doc, const char* key) {
    const obs::Json* value = doc != nullptr ? doc->find(key) : nullptr;
    return value != nullptr && value->is_number() ? value->as_number() : 0.0;
  };

  // One persistent connection for the whole view; the retry policy covers
  // racing a daemon that has not bound its socket yet.
  svc::SocketClient client(socket_path, retry);
  double prev_served = -1.0;
  double prev_uptime = 0.0;
  while (true) {
    std::optional<std::string> answered;
    if (client.ok()) answered = client.submit_with_retry(probe);
    if (!answered)
      throw Error(ErrorCode::kIo, "no xlpd reachable at " + socket_path);
    const std::vector<svc::Reply> replies = svc::decode_replies(*answered);
    XLP_REQUIRE(replies.size() == 1, "malformed reply from " + socket_path);
    if (!replies[0].ok) throw Error(ErrorCode::kState, replies[0].payload_text);
    // decode_replies re-serialized the result, so it parses back.
    const obs::Json snapshot = *obs::Json::parse(replies[0].payload_text);
    const obs::Json* stats = &snapshot;

    const double uptime = num(stats, "uptime_seconds");
    const double served = num(stats, "requests_served");
    const double rate = prev_served >= 0.0 && uptime > prev_uptime
                            ? (served - prev_served) / (uptime - prev_uptime)
                            : 0.0;
    prev_served = served;
    prev_uptime = uptime;

    const obs::Json* kinds = stats->find("kinds");
    const obs::Json* dedup = stats->find("dedup");
    const obs::Json* cache = stats->find("cache");
    const obs::Json* workers = stats->find("workers");
    const obs::Json* latency = stats->find("latency");

    if (!once) std::printf("\033[2J\033[H");  // clear + home
    std::printf("xlpd @ %s — up %.1fs\n", socket_path.c_str(), uptime);
    std::printf(
        "requests  %.0f served (%.1f/s)   stats polls %.0f   queue depth "
        "%.0f   in-flight %.0f\n",
        served, rate, num(stats, "stats_requests"),
        num(stats, "queue_depth"), num(stats, "inflight"));
    std::printf("kinds     solve %.0f   evaluate %.0f   simulate %.0f\n",
                num(kinds, "solve"), num(kinds, "evaluate"),
                num(kinds, "simulate"));
    std::printf(
        "dedup     cache %.0f   inflight %.0f   batch %.0f   executed %.0f "
        "  errors %.0f   poisoned %.0f   hit rate %.1f%%\n",
        num(dedup, "cache_hits"), num(dedup, "inflight_hits"),
        num(dedup, "batch_hits"), num(dedup, "executed"),
        num(dedup, "errors"), num(dedup, "poisoned"),
        num(dedup, "hit_rate") * 100.0);
    std::printf("cache     %.0f/%.0f entries   %.0f evictions   %.0f "
                "corrupt (quarantined)\n",
                num(cache, "entries"), num(cache, "capacity"),
                num(cache, "evictions"), num(cache, "corrupt"));
    if (const obs::Json* chaos = stats->find("chaos");
        chaos != nullptr && num(chaos, "total") > 0.0) {
      const obs::Json* spec = chaos->find("spec");
      std::printf("chaos     %.0f faults injected (%s)\n",
                  num(chaos, "total"),
                  spec != nullptr && spec->is_string()
                      ? spec->as_string().c_str()
                      : "?");
    }
    std::printf("workers   %.0f threads   %.1f%% utilized   busy %.1fs\n",
                num(workers, "threads"),
                num(workers, "utilization") * 100.0,
                num(workers, "busy_seconds"));
    std::printf("%-12s %10s %10s %10s %10s %10s\n", "latency", "count",
                "p50", "p90", "p99", "max");
    for (const auto& [label, key] :
         {std::pair<const char*, const char*>{"queue wait", "queue_wait"},
          {"execute", "execute"},
          {"end-to-end", "end_to_end"}}) {
      const obs::Json* hist =
          latency != nullptr ? latency->find(key) : nullptr;
      std::printf("  %-10s %10.0f %10s %10s %10s %10s\n", label,
                  num(hist, "count"), format_ns(num(hist, "p50")).c_str(),
                  format_ns(num(hist, "p90")).c_str(),
                  format_ns(num(hist, "p99")).c_str(),
                  format_ns(num(hist, "max")).c_str());
    }
    std::fflush(stdout);

    if (once) return 0;
    // Sleep in short slices so SIGINT quits the view promptly.
    double remaining = interval;
    while (remaining > 0.0 && !g_cancel_token.cancelled()) {
      const double slice = std::min(remaining, 0.05);
      std::this_thread::sleep_for(std::chrono::duration<double>(slice));
      remaining -= slice;
    }
    if (g_cancel_token.cancelled()) return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc - 1, argv + 1);
  runctl::install_signal_handlers(g_cancel_token);
  // Resolved once, before dispatch: every ThreadPool the command builds
  // (portfolio chains, sweep cells, campaign trials) sizes itself from
  // this default unless its options name an explicit count.
  if (const long threads = args.get_long("threads", 0); threads > 0)
    util::set_default_thread_count(static_cast<int>(threads));

  // Global ledger / profiler flags, queried before dispatch so the
  // unknown-option check below never flags them. (`bench` shares --out-dir
  // with its BENCH_*.json documents: the ledger lands next to them.)
  const std::string out_dir = args.get_or("out-dir", ".");
  const bool no_ledger = args.has("no-ledger");
  const std::string profile_path = args.get_or("profile-json", "");
  if (!profile_path.empty()) obs::Profiler::enable();
  Stopwatch wall;

  int rc;
  try {
    if (command == "solve") rc = cmd_solve(args);
    else if (command == "sweep") rc = cmd_sweep(args);
    else if (command == "simulate") rc = cmd_simulate(args);
    else if (command == "trace") rc = cmd_trace(args);
    else if (command == "replay") rc = cmd_replay(args);
    else if (command == "appspec") rc = cmd_appspec(args);
    else if (command == "run") rc = cmd_run(args);
    else if (command == "faults") rc = cmd_faults(args);
    else if (command == "bench") rc = cmd_bench(args);
    else if (command == "report") rc = cmd_report(args);
    else if (command == "diff") rc = cmd_diff(args);
    else if (command == "submit") rc = cmd_submit(args);
    else if (command == "top") rc = cmd_top(args);
    else return usage();

    // Global telemetry flag: dump the process-wide metrics registry
    // (optimizer timers/counters accumulated during the command).
    if (const std::string metrics_path = args.get_or("metrics", "");
        !metrics_path.empty()) {
      const bool written =
          obs::MetricsRegistry::global().write_json_file(metrics_path);
      std::printf("  metrics: %s %s\n", metrics_path.c_str(),
                  written ? "written" : "NOT WRITTEN");
      if (written) g_ledger.artifact(metrics_path);
    }

    const auto unknown = args.unknown_keys();
    if (!unknown.empty()) {
      for (const auto& key : unknown)
        std::fprintf(stderr, "warning: unused option --%s\n", key.c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = e.code() == ErrorCode::kUsage ? kExitUsage : 1;
  } catch (const PreconditionError& e) {
    // Violated preconditions at the CLI boundary are bad arguments.
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  // A SIGINT/SIGTERM stop is still the conventional 130 at the process
  // level, even though the command drained gracefully and saved its state.
  if (rc == 0 && g_cancel_token.cancelled() &&
      g_cancel_token.reason() == runctl::RunStatus::kInterrupted)
    rc = kExitInterrupted;

  if (!profile_path.empty()) {
    // Snapshot after the command has joined its worker pools so every
    // thread's scope tree is final.
    const obs::ProfileReport profile = obs::Profiler::snapshot();
    if (util::atomic_write_file(profile_path,
                                profile.to_json().dump() + "\n")) {
      std::printf("  profile-json: %s written (%zu scopes)\n",
                  profile_path.c_str(), profile.entries().size());
      g_ledger.artifact(profile_path);
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   profile_path.c_str());
    }
  }

  // One ledger record per invocation, failures included (the exit status
  // is part of the record). Best-effort: a read-only out-dir must not
  // change the command's outcome.
  if (g_ledger.filled && !no_ledger) {
    const obs::Provenance prov = obs::Provenance::collect(g_ledger.entry.seed);
    g_ledger.entry.git_sha = prov.git_sha;
    g_ledger.entry.hostname = prov.hostname;
    g_ledger.entry.wall_seconds = wall.seconds();
    g_ledger.entry.exit_status = rc;
    const std::string ledger_path =
        (std::filesystem::path(out_dir) / "ledger.jsonl").string();
    if (!obs::append_ledger_entry(ledger_path, g_ledger.entry))
      std::fprintf(stderr, "warning: could not append to %s\n",
                   ledger_path.c_str());
  }
  return rc;
}
