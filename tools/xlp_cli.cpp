// xlp — command-line front end to the express-link placement toolkit.
//
// `xlp --help` lists the commands and `xlp <command> --help` a command's
// flags with their types, defaults and help: each flag is declared once,
// in the command table above main(). A flag the command does not declare,
// or a value of the wrong type, is a usage error before any work.
//
// solve, simulate, sweep, appspec and run turn their request flags into an
// xlp-request/1 document and parse it with svc::Request::from_json
// (docs/service.md), so the request defaults are svc::Request's and a run
// id is the request id xlpd uses for the same work. Every command that
// records a run appends one JSONL record to <out-dir>/ledger.jsonl
// (docs/observability.md). SIGINT/SIGTERM request a cooperative stop that
// reports (and checkpoints) the best solution so far (docs/resilience.md).
//
// Exit codes:
//   0    success (including runs stopped gracefully by --time-limit)
//   1    domain failure (I/O, malformed input, simulation error)
//   2    usage error (unknown command or flag, bad flag values)
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

using Flags = std::vector<Args::Flag>;
using enum Args::Type;

Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Flag groups, each listed by the commands that read it. main() reads the
// ledger, output and thread flags; `bench` also writes its BENCH_*.json
// files into --out-dir.
const Flags kLedgerFlags = {
    {"out-dir", kString, ".", "directory of ledger.jsonl"},
    {"no-ledger", kBool, "", "append no ledger record"}};
const Flags kOutputFlags = {
    {"metrics", kString, "", "write the metrics registry to this file"},
    {"profile-json", kString, "", "profile, write the scope tree here"}};
const Flags kThreadFlags = {
    {"threads", kInt, "0", "pool workers (0: XLP_THREADS or all cores)"}};
const Flags kRunControlFlags = {
    {"time-limit", kDouble, "0",
     "wall seconds, then stop with best-so-far (0: none)"}};
const Flags kCheckpointFlags = {
    {"checkpoint", kString, "", "annealer state file, kept up to date"},
    {"checkpoint-every", kLong, "10000", "checkpoint cadence in SA moves"}};
const Flags kRetryFlags = {
    {"retries", kInt, "5", "resubmissions of a failed round trip"},
    {"retry-base-ms", kDouble, "50", "first backoff in ms, then doubled"}};
const Args::Flag kTraceFlag = {"trace", kString, "", "JSONL event trace"};
const Args::Flag kSeriesFlag = {"series", kString, "", "xlp-series/1 file"};
const Args::Flag kStatsFlag = {"stats-json", kString, "", "SimStats file"};

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
  const double limit = args.get_double("time-limit");
  if (limit > 0.0) deadline = runctl::Deadline::after_seconds(limit);
  return runctl::RunControl(&g_cancel_token, deadline);
}

/// Prints (and traces) how a search or simulation phase ended; quiet for
/// normal completion. A stopped phase also names `checkpoint`, the state
/// it saved (when non-empty), as the file to resume from.
void report_status(runctl::RunStatus status, const char* phase,
                   obs::TraceSink* sink, const std::string& checkpoint = {}) {
  if (sink != nullptr)
    sink->emit("run.status", obs::Json::object()
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

/// A flag that sets a member of the xlp-request/1 document; its default is
/// that member's default in svc::Request.
struct RequestFlag {
  const char* flag;
  const char* member;
  Args::Type type;
  const char* help;
};

constexpr RequestFlag kRequestFlags[] = {
    {"n", "n", kInt, "routers per side"},
    {"c", "c", kInt, "link limit C"},
    {"base-flit", "b", kInt, "baseline flit width B in bits"},
    {"method", "method", kString, "dcsa | onlysa | dnc | exact"},
    {"moves", "moves", kLong, "SA move budget"},
    {"chains", "chains", kInt, "annealing chains (> 1: a portfolio)"},
    {"links", "links", kString, "row/column express links lo-hi,lo-hi,..."},
    {"pattern", "workload", kString, "synthetic pattern or PARSEC model"},
    {"load", "load", kDouble, "offered packets/node/cycle"},
    {"cycles", "cycles", kLong, "measurement window in cycles"},
    {"routing", "routing", kString, "xy | yx | o1turn"},
    {"vcs", "vcs", kInt, "virtual channels per port"},
    {"vec", "vec", kBool, "virtual-express bypass"},
    {"seed", "seed", kLong, "random seed"}};

const RequestFlag& request_flag(const std::string& name) {
  for (const RequestFlag& flag : kRequestFlags)
    if (name == flag.flag) return flag;
  XLP_FAIL("no request flag --" + name);
}

/// Declares the request flags `names`, with svc::Request's defaults.
Flags request_flags(std::initializer_list<const char*> names) {
  const obs::Json defaults = svc::Request{}.fields();
  Flags flags;
  for (const char* name : names) {
    const RequestFlag& flag = request_flag(name);
    const obs::Json& value = *defaults.find(flag.member);
    const std::string fallback = value.is_string()   ? value.as_string()
                                 : value.is_number() ? value.dump()
                                                     : "";
    flags.push_back({flag.flag, flag.type, fallback, flag.help});
  }
  return flags;
}

/// The request of `kind` that `members` and the command's given request
/// flags describe (a member the caller sets wins over its flag), parsed by
/// svc::Request::from_json, the daemon's parser: an absent flag keeps the
/// request default, and a kParse error is a bad flag value (exit 2).
svc::Request request_from_flags(const Args& args, const char* kind,
                                obs::Json members = obs::Json::object()) {
  members.set("kind", kind);
  for (const RequestFlag& flag : kRequestFlags) {
    const std::string name = flag.flag;
    if (!args.declares(name) || !args.has(name) ||
        members.find(flag.member) != nullptr)
      continue;
    switch (flag.type) {
      case kBool: members.set(flag.member, true); break;
      case kInt:
      case kLong: {
        // A request's numbers are doubles, exact only up to 2^53.
        const long value = args.get_long(name);
        if (value > (1L << 53) || value < -(1L << 53))
          throw Error(ErrorCode::kUsage,
                      "option --" + name + " must be within +-2^53");
        members.set(flag.member, value);
        break;
      }
      case kDouble: members.set(flag.member, args.get_double(name)); break;
      case kString: members.set(flag.member, args.get_string(name)); break;
    }
  }
  return from_flags([&] { return svc::Request::from_json(members); });
}

/// Owns the optional `--trace <file.jsonl>` output: the stream plus the
/// JSONL sink writing to it. When the flag is absent the sink is nullptr,
/// which every instrumented path reads as "off".
class TraceOutput {
 public:
  explicit TraceOutput(const Args& args) : path_(args.get_string("trace")) {
    if (path_.empty()) return;
    util::ensure_parent_dir(path_);
    stream_.open(path_);
    if (!stream_.good()) throw Error(ErrorCode::kIo, "cannot open " + path_);
    sink_ = std::make_unique<obs::JsonlTraceSink>(stream_);
  }

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
      : path_(args.get_string("series")) {}

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

void write_stats_if_requested(const Args& args, const sim::SimStats& stats) {
  const std::string path = args.get_string("stats-json");
  if (path.empty()) return;
  std::printf("  stats-json: %s %s\n", path.c_str(),
              sim::write_stats_json(stats, path) ? "written" : "NOT WRITTEN");
  g_ledger.artifact(path);
}

int cmd_solve(const Args& args) {
  const svc::Request request = request_from_flags(args, "solve");
  g_ledger.identify("solve", request.to_json(), request.seed);

  TraceOutput trace(args);
  SeriesOutput series(args);
  runctl::RunControl control = make_run_control(args);
  const std::string checkpoint_path = args.get_string("checkpoint");
  core::SaParams hooks;
  hooks.series = series.recorder_or_null();
  hooks.control = &control;
  hooks.checkpoint_every_moves = args.get_long("checkpoint-every");
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
  report_status(result.status, "solve", trace.sink_or_null(),
                checkpoint_path);
  trace.report();
  series.report();
  return 0;
}

/// The paper's outer loop as one svc::Request of kind sweep: the table
/// holds the points xlpd serves for the same request document.
int cmd_sweep(const Args& args) {
  const svc::Request request = request_from_flags(args, "sweep");
  g_ledger.identify("sweep", request.to_json(), request.seed);

  runctl::RunControl control = make_run_control(args);
  const auto points = svc::sweep(request, &control);
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
  Table table({"C", "flit", "total", "head", "serialization", "placement"});
  for (const auto& p : points) {
    table.add_row({std::to_string(p.link_limit),
                   std::to_string(p.design.flit_bits()),
                   Table::fmt(p.breakdown.total()),
                   Table::fmt(p.breakdown.head),
                   Table::fmt(p.breakdown.serialization),
                   p.placement.placement.to_string()});
    if (status == runctl::RunStatus::kCompleted) status = p.placement.status;
  }
  table.print(std::cout);
  const auto& best = points[core::best_point(points)];
  std::printf("best: C=%d at %.2f cycles\n", best.link_limit,
              best.breakdown.total());
  report_status(status, "sweep", nullptr);
  return 0;
}

int cmd_simulate(const Args& args) {
  const svc::Request request = request_from_flags(args, "simulate");
  g_ledger.identify("simulate", request.to_json(), request.seed);
  const topo::ExpressMesh design = svc::design_of(request);

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
  report_status(stats.status, "simulate", trace.sink_or_null());
  write_stats_if_requested(args, stats);
  trace.report();
  series.report();
  return 0;
}

int cmd_trace(const Args& args) {
  const int n = args.get_int("n");
  const std::string out_path = args.get_string("out");
  if (out_path.empty())
    throw Error(ErrorCode::kUsage, "--out <file> is required");
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed"));
  const std::string pattern = args.get_string("pattern");
  const double load = args.get_double("load");
  const long cycles = args.get_long("cycles");
  // Checked before the ledger record opens, as a request's fields are.
  // The trace samples a dense (n^2)^2 matrix.
  if (n < 2 || n > traffic::kDenseDemandMaxSide)
    throw Error(ErrorCode::kUsage,
                "--n must be in [2, " +
                    std::to_string(traffic::kDenseDemandMaxSide) + "]");
  if (!traffic::is_known_workload(pattern))
    throw Error(ErrorCode::kUsage, "unknown --pattern '" + pattern + "'");
  if (const char* unfit = traffic::workload_unfit(pattern, n))
    throw Error(ErrorCode::kUsage, "--pattern '" + pattern +
                                       "' has no demand at this --n: " +
                                       unfit);
  if (load <= 0.0 || load > 1.0)
    throw Error(ErrorCode::kUsage, "--load must be in (0, 1]");
  g_ledger.describe("trace",
                    obs::Json::object()
                        .set("n", n)
                        .set("pattern", pattern)
                        .set("load", load)
                        .set("cycles", cycles),
                    seed);
  const auto demand = traffic::resolve_workload(pattern, n, load);
  Rng rng(seed);
  const auto trace = traffic::Trace::sample(
      demand, latency::PacketMix::paper_default(), cycles, rng);
  std::ostringstream out;
  trace.save(out);
  if (!util::atomic_write_file(out_path, out.str()))
    throw Error(ErrorCode::kIo, "cannot write " + out_path);
  g_ledger.artifact(out_path);
  std::printf("wrote %zu packets over %ld cycles to %s\n",
              trace.packets().size(), trace.duration(), out_path.c_str());
  return 0;
}

int cmd_replay(const Args& args) {
  const std::string path = args.get_string("trace");
  if (path.empty())
    throw Error(ErrorCode::kUsage, "--trace <file> is required");
  std::ifstream in(path);
  if (!in.good()) throw Error(ErrorCode::kIo, "cannot open " + path);
  const auto trace = traffic::Trace::load(in);

  const int c = args.get_int("c");
  const std::string links = args.get_string("links");
  const topo::RowTopology row(trace.side(), from_flags([&] {
    return topo::parse_links(links);
  }));
  const topo::ExpressMesh design = topo::make_design(row, c);
  g_ledger.describe("replay",
                    obs::Json::object()
                        .set("trace", path)
                        .set("links", links)
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
  const std::string checkpoint_path = args.get_string("checkpoint");
  const std::string resume_path = args.get_string("resume");

  svc::Request solve_request = request_from_flags(args, "solve");
  // The simulate phase runs on the solve's instance and placement; its
  // own flags are parsed up front, before any work.
  const auto simulate_request = [&](const std::string& links) {
    return request_from_flags(
        args, "simulate",
        obs::Json::object()
            .set("n", solve_request.n)
            .set("c", solve_request.link_limit)
            .set("seed", static_cast<long>(solve_request.seed))
            .set("links", links));
  };
  const svc::Request simulate_flags = simulate_request("");
  const auto identify = [&] {
    g_ledger.identify("run",
                      obs::Json::object()
                          .set("solve", solve_request.to_json())
                          .set("pattern", simulate_flags.workload)
                          .set("load", simulate_flags.load)
                          .set("cycles", simulate_flags.cycles)
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
  hooks.series = series.recorder_or_null();
  hooks.control = &control;
  hooks.checkpoint_every_moves = args.get_long("checkpoint-every");
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
  report_status(result.status, "solve", trace.sink_or_null(), saved);
  if (result.status != runctl::RunStatus::kCompleted) {
    // The search was cut short: skip the simulation phase (its input is
    // only the best-so-far placement).
    std::printf("  simulation skipped (solve phase did not complete)\n");
    trace.report();
    series.report();
    return 0;
  }

  const svc::Request sim_request =
      simulate_request(topo::format_links(result.placement));
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
  report_status(stats.status, "simulate", trace.sink_or_null());
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
  config.n = args.get_int("n");
  config.link_limit = args.get_int("c");
  config.kill_links = args.get_int("kill-express");
  config.trials = args.get_int("trials");
  config.fault_cycle = args.get_long("at-cycle");
  config.recover_cycle = args.get_long("recover-at");
  config.load = args.get_double("load");
  config.max_retries = args.get_int("retries");
  config.reliability_weight = args.get_double("rel-weight");
  config.seed = static_cast<std::uint64_t>(args.get_long("seed"));
  const std::string policy = args.get_string("policy");
  if (policy == "drain") config.policy = sim::FaultPolicy::kDrainThenSwap;
  else if (policy != "drop")
    throw Error(ErrorCode::kUsage, "--policy must be drop or drain");
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

  if (const std::string json_path = args.get_string("json");
      !json_path.empty()) {
    if (!util::atomic_write_file(json_path, result.to_json().dump() + "\n"))
      throw Error(ErrorCode::kIo, "cannot write " + json_path);
    std::printf("  json: %s written\n", json_path.c_str());
    g_ledger.artifact(json_path);
  }
  trace.report();
  return 0;
}

/// Section 5.6.4's design for a known demand as one svc::Request of kind
/// appspec: the rows and columns are the ones xlpd serves for the same
/// request document.
int cmd_appspec(const Args& args) {
  const svc::Request request = request_from_flags(args, "appspec");
  g_ledger.identify("appspec", request.to_json(), request.seed);

  runctl::RunControl control(&g_cancel_token);
  const core::AppSpecificResult result = svc::appspec(request, &control);
  std::printf("app-specific design: C=%d, weighted latency %.2f cycles\n",
              result.link_limit, result.breakdown.total());
  for (int y = 0; y < request.n; ++y)
    std::printf("  row %2d: %s\n", y,
                result.design.row(y).to_string().c_str());
  for (int x = 0; x < request.n; ++x)
    std::printf("  col %2d: %s\n", x,
                result.design.col(x).to_string().c_str());
  report_status(result.status, "appspec", nullptr);
  return 0;
}

int cmd_bench(const Args& args) {
  bench::register_all_suites();
  bench::RunnerOptions options;
  options.filter = args.get_string("filter");
  options.repeats = std::max(1, args.get_int("repeats"));
  options.warmup = std::max(0, args.get_int("warmup"));
  options.out_dir = args.get_string("out-dir");
  options.deterministic = args.has("deterministic");
  options.provenance = obs::Provenance::collect(
      static_cast<std::uint64_t>(args.get_long("seed")));
  g_ledger.describe("bench",
                    obs::Json::object()
                        .set("filter", options.filter)
                        .set("repeats", options.repeats)
                        .set("warmup", options.warmup)
                        .set("deterministic", options.deterministic),
                    options.provenance.seed);
  return bench::run_and_report(options, args.get_string("profile"),
                               args.has("list"));
}

/// Renders the single-file HTML dashboard for a run directory: line charts
/// for every series of the xlp-series/1 document, the channel-utilization
/// heatmap, stats, profiler and ledger tables. The output embeds
/// everything inline — no scripts, no external resources — so it can be
/// archived or attached to CI artifacts as one file.
int cmd_report(const Args& args) {
  const std::string dir = args.positional().front();
  if (!std::filesystem::is_directory(dir))
    throw Error(ErrorCode::kUsage, "not a directory: " + dir);
  g_ledger.describe("report", obs::Json::object().set("dir", dir), 0);

  const obs::RunDirData data = obs::collect_run_dir(dir);
  const std::string out_path =
      args.get_or("out", (std::filesystem::path(dir) / "report.html").string());
  const std::string html = obs::render_report_html(data);
  if (!util::atomic_write_file(out_path, html))
    throw Error(ErrorCode::kIo, "cannot write " + out_path);
  g_ledger.artifact(out_path);

  const std::size_t chart_count =
      data.series ? obs::chart_series_from_json(*data.series).size() : 0;
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
  const double threshold = args.get_double("threshold");
  if (threshold < 0.0)
    throw Error(ErrorCode::kUsage,
                "option --threshold needs a percentage >= 0");
  try {
    return obs::diff_inputs(args.positional()[0], args.positional()[1],
                            threshold, args.get_string("html"));
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
/// canonical driver-as-client flow is `--sweep-n`, which submits the sweep
/// request `xlp sweep` runs for the same flags — resubmitting it is
/// answered from the server's cache without re-annealing.
///
/// The reply document goes to stdout (pipeable); a per-request summary
/// with HIT/MISS markers goes to stderr. Over the socket, each request of
/// an array submission is sent as its own frame on one connection, so
/// every summary line carries that request's true wall time. Exits 1 when
/// any request in the batch errored.
int cmd_submit(const Args& args) {
  const std::string file = args.get_string("file");
  const std::string queue_dir = args.get_string("queue");
  const std::string socket_path = args.get_string("socket");
  if (file.empty() != args.has("sweep-n"))
    throw Error(ErrorCode::kUsage,
                "exactly one of --file <batch.json> or --sweep-n <n>");
  if (queue_dir.empty() == socket_path.empty())
    throw Error(ErrorCode::kUsage,
                "exactly one of --queue <dir> or --socket <path>");
  std::string text;
  std::optional<obs::Json> doc;
  if (!file.empty()) {
    const auto loaded = util::read_file(file);
    if (!loaded) throw Error(ErrorCode::kIo, "cannot read " + file);
    text = *loaded;
    doc = obs::Json::parse(text);
    if (!doc) throw Error(ErrorCode::kParse, "not valid JSON: " + file);
  } else {
    const svc::Request request = request_from_flags(
        args, "sweep", obs::Json::object().set("n", args.get_int("sweep-n")));
    doc = request.to_json();
    text = doc->dump();
  }
  const long request_count =
      doc->is_array() ? static_cast<long>(doc->size()) : 1;
  g_ledger.describe("submit",
                    obs::Json::object()
                        .set("transport", queue_dir.empty() ? "socket"
                                                            : "queue")
                        .set("requests", request_count),
                    static_cast<std::uint64_t>(args.get_long("seed")));

  svc::RetryPolicy retry;
  retry.retries = args.get_int("retries");
  retry.base_ms = args.get_double("retry-base-ms");
  retry.seed = static_cast<std::uint64_t>(args.get_long("seed"));

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
      const std::string name = args.get_or("name", obs::fnv1a64_hex(text));
      if (!svc::queue_submit(queue_dir, name, text))
        throw Error(ErrorCode::kIo, "cannot submit into " + queue_dir);
      // Throws with request / elapsed / inbox-state context on timeout.
      reply = svc::queue_wait(queue_dir, name, args.get_double("wait"));
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
  const std::string socket_path = args.positional().front();
  const double interval = std::max(args.get_double("interval"), 0.05);
  const bool once = args.has("once");
  const std::string probe = svc::stats_request_text();
  svc::RetryPolicy retry;
  retry.retries = args.get_int("retries");
  retry.base_ms = args.get_double("retry-base-ms");

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
    if (replies.size() != 1)
      throw Error(ErrorCode::kParse, "malformed reply from " + socket_path);
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
    // One column per served kind, in the snapshot's order.
    std::printf("kinds    ");
    const char* separator = " ";
    if (kinds != nullptr && kinds->is_object())
      for (const auto& member : kinds->members()) {
        std::printf("%s%s %.0f", separator, member.first.c_str(),
                    num(kinds, member.first.c_str()));
        separator = "   ";
      }
    std::printf("\n");
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

/// One subcommand: its positional arguments, a one-line summary, its
/// handler and every flag it reads.
struct Command {
  const char* name;
  const char* positionals;  // as shown in its usage line
  std::size_t positional_count;
  const char* summary;
  int (*run)(const Args&);
  Flags flags;
};

const std::vector<Command>& commands() {
  // The request flags `xlp sweep` and `xlp submit --sweep-n` share; each
  // names n its own way.
  static const Flags kSweepFlags =
      request_flags({"base-flit", "method", "moves", "seed"});
  static const std::vector<Command> table = {
      {"solve", "", 0, "anneal or solve exactly one row placement P̄(n, C)",
       cmd_solve,
       request_flags({"n", "c", "method", "moves", "chains", "seed"}) +
           Flags{kTraceFlag, kSeriesFlag} + kRunControlFlags +
           kCheckpointFlags + kThreadFlags + kLedgerFlags + kOutputFlags},
      {"sweep", "", 0, "best design over every link limit C of an n x n mesh",
       cmd_sweep,
       request_flags({"n"}) + kSweepFlags + kRunControlFlags +
           kThreadFlags + kLedgerFlags + kOutputFlags},
      {"simulate", "", 0, "simulate one design point cycle by cycle",
       cmd_simulate,
       request_flags({"n", "c", "links", "pattern", "load", "cycles",
                      "routing", "vcs", "vec", "seed"}) +
           Flags{kTraceFlag, kSeriesFlag, kStatsFlag} + kRunControlFlags +
           kLedgerFlags + kOutputFlags},
      {"trace", "", 0, "sample a workload's packets into a trace file",
       cmd_trace,
       Flags{{"out", kString, "", "trace file to write (required)"},
             {"n", kInt, "8", "routers per side"},
             {"pattern", kString, "transpose", "pattern or PARSEC model"},
             {"load", kDouble, "0.02", "offered packets/node/cycle"},
             {"cycles", kLong, "10000", "trace length in cycles"},
             {"seed", kLong, "1", "random seed"}} +
           kLedgerFlags + kOutputFlags},
      {"replay", "", 0, "replay a trace file on one design", cmd_replay,
       Flags{{"trace", kString, "", "trace file from xlp trace (required)"},
             {"links", kString, "", "row/column express links lo-hi,..."},
             {"c", kInt, "4", "link limit C"},
             kStatsFlag} +
           kRunControlFlags + kLedgerFlags + kOutputFlags},
      {"appspec", "", 0, "design for one application's traffic", cmd_appspec,
       request_flags({"n", "base-flit", "method", "moves", "pattern", "load",
                      "seed"}) +
           kLedgerFlags + kOutputFlags},
      {"run", "", 0, "solve P̄(n, C), then simulate the design found", cmd_run,
       request_flags({"n", "c", "moves", "seed", "pattern", "load", "cycles"}) +
           Flags{kTraceFlag, kSeriesFlag, kStatsFlag} + kRunControlFlags +
           kCheckpointFlags +
           Flags{{"resume", kString, "",
                  "checkpoint to continue; its n, C, moves and seed win"}} +
           kThreadFlags + kLedgerFlags + kOutputFlags},
      {"faults", "", 0, "express-link failure campaign over four designs",
       cmd_faults,
       Flags{{"n", kInt, "8", "routers per side"},
             {"c", kInt, "4", "link limit C"},
             {"kill-express", kInt, "1", "express links killed"},
             {"at-cycle", kLong, "2000", "cycle of the failure"},
             {"recover-at", kLong, "-1", "cycle of the repair (-1: none)"},
             {"trials", kInt, "10", "trials per design"},
             {"load", kDouble, "0.02", "offered packets/node/cycle"},
             {"policy", kString, "drop", "drop | drain"},
             {"retries", kInt, "3", "retransmissions of a lost packet"},
             {"rel-weight", kDouble, "0.3", "reliability weight"},
             {"seed", kLong, "1", "random seed"},
             {"json", kString, "", "campaign result file"},
             kTraceFlag} +
           kThreadFlags + kLedgerFlags + kOutputFlags},
      {"bench", "", 0, "run the benchmarks into BENCH_<suite>.json files",
       cmd_bench,
       Flags{{"filter", kString, "", "regex over suite/name and each tag"},
             {"repeats", kInt, "5", "timed repeats per benchmark"},
             {"warmup", kInt, "1", "untimed runs first"},
             {"deterministic", kBool, "", "zero the timings"},
             {"list", kBool, "", "list the selection, run nothing"},
             {"profile", kString, "", "collapsed-stack profile file"},
             {"seed", kLong, "0", "provenance seed"}} +
           kThreadFlags + kLedgerFlags + kOutputFlags},
      {"report", "<run-dir>", 1, "render a run directory as one HTML page",
       cmd_report,
       Flags{{"out", kString, "", "HTML file (default <run-dir>/report.html)"}}
           + kLedgerFlags + kOutputFlags},
      {"diff", "<old> <new>", 2, "compare two BENCH files or run directories",
       cmd_diff,
       Flags{{"threshold", kDouble, "10", "percent a metric may worsen"},
             {"html", kString, "", "also write the table as HTML"}} +
           kOutputFlags},
      {"submit", "", 0, "send requests to a running xlpd, print the replies",
       cmd_submit,
       Flags{{"file", kString, "", "submission document to send"},
             {"sweep-n", kInt, "", "send the sweep `xlp sweep --n` runs"}} +
           kSweepFlags +
           Flags{{"queue", kString, "", "xlpd queue directory"},
                 {"socket", kString, "", "xlpd socket"},
                 {"wait", kDouble, "60", "seconds to wait for a queue reply"},
                 {"name", kString, "", "queue file name (default: hash)"}} +
           kRetryFlags + kLedgerFlags + kOutputFlags},
      {"top", "<socket>", 1, "live view of a running socket xlpd", cmd_top,
       Flags{{"interval", kDouble, "1", "seconds between refreshes"},
             {"once", kBool, "", "print one snapshot and exit"}} +
           kRetryFlags + kOutputFlags},
  };
  return table;
}

/// The command list: on stdout for `xlp --help`, else on stderr (exit 2).
int usage(std::FILE* out, int rc) {
  std::fprintf(out,
               "usage: xlp <command> [flags]  (`xlp <command> --help` lists "
               "its flags)\n");
  for (const Command& command : commands())
    std::fprintf(out, "  %-9s %s\n", command.name, command.summary);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr, kExitUsage);
  const std::string name = argv[1];
  if (name == "--help") return usage(stdout, 0);
  const auto& table = commands();
  const auto command =
      std::find_if(table.begin(), table.end(),
                   [&](const Command& c) { return name == c.name; });
  if (command == table.end()) return usage(stderr, kExitUsage);

  // Every flag is checked against the command's table before any work.
  std::optional<Args> parsed;
  try {
    parsed.emplace(argc - 1, argv + 1, command->flags);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s (see xlp %s --help)\n", e.what(),
                 command->name);
    return kExitUsage;
  }
  const Args& args = *parsed;
  const std::string usage_line = std::string("usage: xlp ") + command->name +
                                 (*command->positionals ? " " : "") +
                                 command->positionals + " [flags]";
  if (args.help_requested()) {
    std::printf("%s\n%s\n\n%s", usage_line.c_str(), command->summary,
                args.help().c_str());
    return 0;
  }
  if (args.positional().size() != command->positional_count) {
    std::fprintf(stderr, "%s\n", usage_line.c_str());
    return kExitUsage;
  }

  runctl::install_signal_handlers(g_cancel_token);
  // Resolved once, before dispatch: every ThreadPool the command builds
  // (portfolio chains, sweep cells, campaign trials) sizes itself from
  // this default unless its options name an explicit count.
  if (args.declares("threads") && args.get_int("threads") > 0)
    util::set_default_thread_count(args.get_int("threads"));
  const bool ledger = args.declares("out-dir") && !args.has("no-ledger");
  const std::string profile_path = args.get_string("profile-json");
  if (!profile_path.empty()) obs::Profiler::enable();
  Stopwatch wall;

  int rc;
  try {
    rc = command->run(args);

    // Dump the process-wide metrics registry (optimizer timers/counters
    // accumulated during the command).
    if (const std::string metrics_path = args.get_string("metrics");
        !metrics_path.empty()) {
      const bool written =
          obs::MetricsRegistry::global().write_json_file(metrics_path);
      std::printf("  metrics: %s %s\n", metrics_path.c_str(),
                  written ? "written" : "NOT WRITTEN");
      if (written) g_ledger.artifact(metrics_path);
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
  if (g_ledger.filled && ledger) {
    const obs::Provenance prov = obs::Provenance::collect(g_ledger.entry.seed);
    g_ledger.entry.git_sha = prov.git_sha;
    g_ledger.entry.hostname = prov.hostname;
    g_ledger.entry.wall_seconds = wall.seconds();
    g_ledger.entry.exit_status = rc;
    const std::string ledger_path =
        (std::filesystem::path(args.get_string("out-dir")) / "ledger.jsonl")
            .string();
    if (!obs::append_ledger_entry(ledger_path, g_ledger.entry))
      std::fprintf(stderr, "warning: could not append to %s\n",
                   ledger_path.c_str());
  }
  return rc;
}
