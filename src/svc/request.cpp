#include "svc/request.hpp"

#include <optional>

#include "core/objective.hpp"
#include "core/portfolio.hpp"
#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "obs/canonical.hpp"
#include "runctl/checkpoint.hpp"
#include "runctl/control.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "traffic/demand.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xlp::svc {

namespace {

[[noreturn]] void bad_request(const std::string& message) {
  throw Error(ErrorCode::kParse, message);
}

/// Kinds that search for a placement: they read method and moves.
bool searches(RequestKind kind) {
  return kind == RequestKind::kSolve || kind == RequestKind::kSweep ||
         kind == RequestKind::kAppspec;
}

/// Kinds that visit every feasible link limit themselves: they have no c.
bool enumerates_c(RequestKind kind) {
  return kind == RequestKind::kSweep || kind == RequestKind::kAppspec;
}

/// Kinds that read a traffic demand: workload and load.
bool has_demand(RequestKind kind) {
  return kind == RequestKind::kEvaluate || kind == RequestKind::kSimulate ||
         kind == RequestKind::kAppspec;
}

/// The options of a sweep or appspec request's solves: its solver and
/// move budget under `control`, its b, and the zero-load latency model.
core::SweepOptions sweep_options(const Request& request,
                                 runctl::RunControl* control) {
  core::SweepOptions options;
  options.solver = *core::parse_solver(request.method);
  options.sa = core::SaParams{}.with_moves(request.moves);
  options.sa.control = control;
  options.base_flit_bits = request.base_flit_bits;
  options.latency = latency::LatencyParams::zero_load();
  return options;
}

/// An early stop must never produce a payload (it would be cached).
void require_completed(runctl::RunStatus status, const char* what) {
  if (status != runctl::RunStatus::kCompleted)
    throw Error(ErrorCode::kState, std::string(what) + " stopped early (" +
                                       runctl::to_string(status) + ")");
}

obs::Json execute_evaluate(const Request& request) {
  request.validate();
  const topo::ExpressMesh design = design_of(request);
  latency::LatencyParams params = latency::LatencyParams::zero_load();
  params.contention_per_hop = request.contention_per_hop;
  const latency::MeshLatencyModel model(design, params);
  // One pass over the pairs, each source's demand generated into one
  // reused row: the dense N x N matrix is never built.
  const traffic::DemandRows demand =
      traffic::workload_rows(request.workload, request.n, request.load);
  std::vector<double> row(static_cast<std::size_t>(demand.node_count()));
  const latency::PairSums sums = model.sum_pairs([&demand, &row](int src) {
    demand.fill(src, row);
    return row.data();
  });
  const latency::LatencyBreakdown breakdown = model.weighted_average(sums);
  return obs::Json::object()
      .set("kind", "evaluate")
      .set("total", breakdown.total())
      .set("head", breakdown.head)
      .set("serialization", breakdown.serialization)
      .set("worst_case", sums.worst)
      .set("avg_hops", model.average_hops())
      .set("flit_bits", design.flit_bits());
}

}  // namespace

topo::ExpressMesh design_of(const Request& request) {
  const topo::RowTopology row(request.n, topo::parse_links(request.links));
  return topo::make_design(row, request.link_limit, request.base_flit_bits);
}

core::PlacementResult solve(const Request& request,
                            const core::SaParams& hooks,
                            const std::string& checkpoint_path,
                            long* portfolio_evaluations,
                            const runctl::CheckpointFile* resume) {
  request.validate();
  const core::Solver solver = *core::parse_solver(request.method);
  core::SaParams params = core::SaParams{}.with_moves(request.moves);
  params.series = hooks.series;
  params.control = hooks.control;
  params.checkpoint_every_moves = hooks.checkpoint_every_moves;

  if (resume != nullptr ? resume->portfolio.has_value()
                        : core::is_annealed(solver) && request.chains > 1) {
    core::PortfolioOptions options;
    options.chains = request.chains;
    options.sa = params;
    options.solver = solver;
    options.checkpoint_path = checkpoint_path;
    if (resume != nullptr) options.resume = &*resume->portfolio;
    core::PortfolioResult portfolio =
        core::solve_portfolio(request.n, route::HopWeights{}, std::nullopt,
                              request.link_limit, options, request.seed);
    if (portfolio_evaluations != nullptr)
      *portfolio_evaluations = portfolio.total_evaluations;
    core::PlacementResult result = std::move(portfolio.best);
    result.status = portfolio.status;
    result.seconds = portfolio.seconds;
    return result;
  }

  params.checkpoint_sink = runctl::sa_checkpoint_file_sink(checkpoint_path);
  Rng rng(request.seed);
  return core::solve_row(core::RowObjective(request.n, route::HopWeights{}),
                         request.link_limit, solver, params, {}, rng,
                         resume != nullptr ? &*resume->sa : nullptr);
}

Request resumed_request(const runctl::CheckpointFile& file, Request base) {
  if (file.sa) {
    const runctl::SaCheckpoint& ck = *file.sa;
    base.n = ck.n;
    base.link_limit = ck.link_limit;
    if (const auto solver = core::parse_solver(ck.method, true))
      base.method = core::to_string(*solver);
    base.moves = ck.schedule.total_moves;
    base.chains = 1;
  } else {
    const runctl::PortfolioCheckpoint& pc = *file.portfolio;
    base.n = pc.n;
    base.link_limit = pc.link_limit;
    base.method = pc.solver;
    base.moves = pc.schedule.total_moves;
    base.chains = pc.chains;
    base.seed = pc.seed;
  }
  return base;
}

std::vector<core::SweepPoint> sweep(const Request& request,
                                    runctl::RunControl* control) {
  request.validate();
  Rng rng(request.seed);
  return core::sweep_link_limits(request.n, request.n,
                                 sweep_options(request, control), rng);
}

core::AppSpecificResult appspec(const Request& request,
                                runctl::RunControl* control) {
  request.validate();
  Rng rng(request.seed);
  return core::solve_app_specific(
      traffic::resolve_workload(request.workload, request.n, request.load),
      sweep_options(request, control), rng);
}

sim::SimStats simulate(const Request& request, const sim::SimConfig& hooks) {
  request.validate();
  sim::SimConfig config;
  config.measure_cycles = request.cycles;
  config.vcs_per_port = request.vcs;
  config.seed = request.seed;
  config.virtual_express_bypass = request.vec;
  if (request.routing == "yx") config.routing = sim::RoutingMode::kYX;
  else if (request.routing == "o1turn")
    config.routing = sim::RoutingMode::kO1Turn;
  config.trace = hooks.trace;
  config.series = hooks.series;
  config.control = hooks.control;
  return exp::simulate_design(
      design_of(request),
      traffic::resolve_workload(request.workload, request.n, request.load),
      config);
}

const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kSolve: return "solve";
    case RequestKind::kEvaluate: return "evaluate";
    case RequestKind::kSimulate: return "simulate";
    case RequestKind::kSweep: return "sweep";
    case RequestKind::kAppspec: return "appspec";
    case RequestKind::kStats: return "stats";
  }
  return "unknown";
}

obs::Json Request::to_json() const {
  obs::Json doc = obs::Json::object()
                      .set("schema", kRequestSchema)
                      .set("kind", svc::to_string(kind));
  // A stats request names no work: every stats request is the same
  // request, {"schema","kind"} only.
  if (kind == RequestKind::kStats) return doc;
  doc.set("n", n);
  if (!enumerates_c(kind)) doc.set("c", link_limit);
  doc.set("b", base_flit_bits);
  if (searches(kind)) {
    doc.set("method", method);
    if (const auto solver = core::parse_solver(method);
        solver && core::is_annealed(*solver)) {
      doc.set("moves", moves);
      // A sweep or appspec runs one chain per solve.
      if (chains != 1 && kind == RequestKind::kSolve)
        doc.set("chains", chains);
    }
  }
  if (has_demand(kind)) {
    if (!searches(kind)) doc.set("links", links);
    doc.set("workload", workload).set("load", load);
    if (kind == RequestKind::kSimulate) {
      doc.set("cycles", cycles).set("routing", routing).set("vcs", vcs);
      if (vec) doc.set("vec", true);
    } else if (kind == RequestKind::kEvaluate) {
      doc.set("contention", contention_per_hop);
    }
  }
  // The seed only matters where randomness does: annealing and the
  // simulator's packet sampling. Evaluate is fully analytic.
  if (kind != RequestKind::kEvaluate)
    doc.set("seed", static_cast<long>(seed));
  return doc;
}

obs::Json Request::fields() const {
  return obs::Json::object()
      .set("n", n)
      .set("c", link_limit)
      .set("b", base_flit_bits)
      .set("method", method)
      .set("moves", moves)
      .set("chains", chains)
      .set("links", links)
      .set("workload", workload)
      .set("load", load)
      .set("cycles", cycles)
      .set("routing", routing)
      .set("vcs", vcs)
      .set("vec", vec)
      .set("contention", contention_per_hop)
      .set("seed", static_cast<long>(seed));
}

std::string Request::id() const {
  return obs::fnv1a64_hex(obs::canonical_json(to_json()));
}

void Request::validate() const {
  if (kind == RequestKind::kStats) return;  // carries no parameters
  // to_json() writes the seed as a JSON number, a double: past 2^53 two
  // seeds would share one id, one cache entry and one ledger record.
  if (seed > (std::uint64_t{1} << 53)) bad_request("seed must be at most 2^53");
  if (n < 2 || n > 256) bad_request("n must be in [2, 256]");
  // A sweep or appspec has no c: it visits the limits that divide b
  // itself.
  if (!enumerates_c(kind)) {
    if (link_limit < 1) bad_request("c must be at least 1");
    if (base_flit_bits < 1 || base_flit_bits % link_limit != 0)
      bad_request("c must divide the base flit width b");
  } else if (base_flit_bits < 1) {
    bad_request("b must be at least 1");
  }
  if (searches(kind)) {
    if (!core::parse_solver(method))
      bad_request("method must be dcsa, onlysa, dnc or exact");
    if (moves < 0) bad_request("moves must be non-negative");
    if (kind == RequestKind::kSolve && (chains < 1 || chains > 256))
      bad_request("chains must be in [1, 256]");
  }
  if (has_demand(kind)) {
    if (!traffic::is_known_workload(workload))
      bad_request("unknown workload '" + workload + "'");
    if (const char* unfit = traffic::workload_unfit(workload, n))
      bad_request("workload '" + workload + "' has no demand at n = " +
                  std::to_string(n) + ": " + unfit);
    if (load <= 0.0 || load > 1.0) bad_request("load must be in (0, 1]");
    // Evaluate streams its demand row by row; the other kinds build the
    // dense (n^2)^2 matrix.
    if (kind != RequestKind::kEvaluate && n > traffic::kDenseDemandMaxSide)
      bad_request(std::string(svc::to_string(kind)) + " needs n in [2, " +
                  std::to_string(traffic::kDenseDemandMaxSide) +
                  "]: its demand is a dense (n^2)^2 matrix");
  }
  if (!searches(kind)) {
    // Everything design_of() and the simulator would reject: a request
    // that is wrong in itself is a parse error, never a retryable one.
    const std::vector<topo::RowLink> parsed = topo::parse_links(links);
    for (const topo::RowLink& link : parsed)
      if (link.lo < 0 || link.hi >= n || link.length() < 2)
        bad_request("links must join routers in [0, n) at least two apart");
    if (!topo::RowTopology(n, parsed).fits_link_limit(link_limit))
      bad_request("links exceed the link limit c");
    if (kind == RequestKind::kSimulate) {
      if (cycles < 1) bad_request("cycles must be positive");
      if (routing != "xy" && routing != "yx" && routing != "o1turn")
        bad_request("routing must be xy, yx or o1turn");
      if (vcs < 1 || vcs > 16) bad_request("vcs must be in [1, 16]");
      if (routing == "o1turn" && vcs < 2)
        bad_request("o1turn needs at least 2 vcs (one per orientation)");
    }
    if (contention_per_hop < 0.0)
      bad_request("contention must be non-negative");
  }
}

Request Request::from_json(const obs::Json& doc) {
  if (!doc.is_object()) bad_request("request must be a JSON object");
  Request request;
  bool saw_kind = false;
  for (const auto& [key, value] : doc.members()) {
    try {
      if (key == "schema") {
        if (!value.is_string() || value.as_string() != kRequestSchema)
          bad_request("schema must be \"" + std::string(kRequestSchema) +
                      "\"");
      } else if (key == "kind") {
        const std::string& kind = value.as_string();
        saw_kind = true;
        if (kind == "solve") request.kind = RequestKind::kSolve;
        else if (kind == "evaluate") request.kind = RequestKind::kEvaluate;
        else if (kind == "simulate") request.kind = RequestKind::kSimulate;
        else if (kind == "sweep") request.kind = RequestKind::kSweep;
        else if (kind == "appspec") request.kind = RequestKind::kAppspec;
        else if (kind == "stats") request.kind = RequestKind::kStats;
        else
          bad_request(
              "kind must be solve, evaluate, simulate, sweep, appspec or "
              "stats");
      } else if (key == "n") {
        request.n = value.as_int();
      } else if (key == "c") {
        request.link_limit = value.as_int();
      } else if (key == "b") {
        request.base_flit_bits = value.as_int();
      } else if (key == "method") {
        request.method = value.as_string();
      } else if (key == "moves") {
        request.moves = value.as_long();
      } else if (key == "chains") {
        request.chains = value.as_int();
      } else if (key == "links") {
        request.links = value.as_string();
      } else if (key == "workload") {
        request.workload = value.as_string();
      } else if (key == "load") {
        request.load = value.as_number();
      } else if (key == "cycles") {
        request.cycles = value.as_long();
      } else if (key == "routing") {
        request.routing = value.as_string();
      } else if (key == "vcs") {
        request.vcs = value.as_int();
      } else if (key == "vec") {
        request.vec = value.as_bool();
      } else if (key == "contention") {
        request.contention_per_hop = value.as_number();
      } else if (key == "seed") {
        request.seed = static_cast<std::uint64_t>(value.as_long());
      } else {
        bad_request("unknown request field '" + key + "'");
      }
    } catch (const PreconditionError&) {
      bad_request("request field '" + key +
                  "' has the wrong type or is out of range");
    }
  }
  if (!saw_kind) bad_request("request is missing 'kind'");
  request.validate();
  return request;
}

obs::Json execute_request(const Request& request,
                          runctl::RunControl* control) {
  switch (request.kind) {
    case RequestKind::kSolve: {
      core::SaParams hooks;
      hooks.control = control;
      const core::PlacementResult result = solve(request, hooks);
      require_completed(result.status, "solve");
      return obs::Json::object()
          .set("kind", "solve")
          .set("placement", result.placement.to_string())
          .set("value", result.value)
          .set("evaluations", result.evaluations)
          .set("method", result.method);
    }
    case RequestKind::kEvaluate: return execute_evaluate(request);
    case RequestKind::kSimulate: {
      sim::SimConfig hooks;
      hooks.control = control;
      const sim::SimStats stats = simulate(request, hooks);
      require_completed(stats.status, "simulate");
      return obs::Json::object()
          .set("kind", "simulate")
          .set("packets_offered", stats.packets_offered)
          .set("packets_finished", stats.packets_finished)
          .set("avg_latency", stats.avg_latency)
          .set("p50_latency", stats.p50_latency)
          .set("p95_latency", stats.p95_latency)
          .set("p99_latency", stats.p99_latency)
          .set("max_latency", stats.max_latency)
          .set("throughput", stats.throughput_packets_per_node_cycle)
          .set("avg_hops", stats.avg_hops)
          .set("drained", stats.drained);
    }
    case RequestKind::kSweep: {
      const std::vector<core::SweepPoint> points = sweep(request, control);
      obs::Json serialized = obs::Json::array();
      for (const core::SweepPoint& point : points) {
        require_completed(point.placement.status, "sweep");
        serialized.push(
            obs::Json::object()
                .set("c", point.link_limit)
                .set("flit_bits", point.design.flit_bits())
                .set("total", point.breakdown.total())
                .set("head", point.breakdown.head)
                .set("serialization", point.breakdown.serialization)
                .set("placement", point.placement.placement.to_string())
                .set("evaluations", point.placement.evaluations));
      }
      return obs::Json::object()
          .set("kind", "sweep")
          .set("points", std::move(serialized))
          .set("best", points[core::best_point(points)].link_limit);
    }
    case RequestKind::kAppspec: {
      const core::AppSpecificResult result = appspec(request, control);
      require_completed(result.status, "appspec");
      obs::Json rows = obs::Json::array();
      obs::Json cols = obs::Json::array();
      for (int i = 0; i < request.n; ++i) {
        rows.push(result.design.row(i).to_string());
        cols.push(result.design.col(i).to_string());
      }
      return obs::Json::object()
          .set("kind", "appspec")
          .set("c", result.link_limit)
          .set("flit_bits", result.design.flit_bits())
          .set("total", result.breakdown.total())
          .set("head", result.breakdown.head)
          .set("serialization", result.breakdown.serialization)
          .set("rows", std::move(rows))
          .set("cols", std::move(cols))
          .set("evaluations", result.evaluations);
    }
    case RequestKind::kStats:
      // Stats requests are introspection, answered by the Server from
      // memory; they never reach the executor.
      throw Error(ErrorCode::kState,
                  "stats requests are answered by the server, not executed");
  }
  throw Error(ErrorCode::kInternal, "unhandled request kind");
}

}  // namespace xlp::svc
