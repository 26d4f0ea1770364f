#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/app_specific.hpp"
#include "core/c_sweep.hpp"
#include "core/drivers.hpp"
#include "obs/json.hpp"
#include "runctl/checkpoint.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "topo/express_mesh.hpp"

namespace xlp::svc {

/// Schema identifier stamped into every serialized request; bumping it
/// invalidates every cache entry (the version string is hashed).
inline constexpr const char* kRequestSchema = "xlp-request/1";

/// What a request asks the service to do.
///  * kSolve: anneal P̄(n, C) and return the placement + objective;
///  * kEvaluate: analytic latency breakdown of a fixed design point;
///  * kSimulate: flit-level simulation of a fixed design point;
///  * kSweep: the paper's outer loop — solve P̄(n, C) for every feasible
///    link limit C and keep the design with the lowest total latency;
///  * kAppspec: the same loop for a known demand (Section 5.6.4) — every
///    row and column gets its own placement for the workload's traffic;
///  * kStats: a live introspection snapshot of the serving process,
///    answered by the server from memory (never executed, never cached,
///    never ledgered — see Server::stats_snapshot()).
enum class RequestKind {
  kSolve,
  kEvaluate,
  kSimulate,
  kSweep,
  kAppspec,
  kStats
};

[[nodiscard]] const char* to_string(RequestKind kind) noexcept;

/// A pure, hashable unit of work — the canonical request model every
/// scenario entry point reduces to (ROADMAP item 5). A request carries
/// *only* inputs that define the answer: no output paths, thread counts,
/// time limits or machine facts, so the same request hashes identically
/// everywhere and its result can be cached by content.
///
/// Fields irrelevant to a request's kind are excluded from its canonical
/// serialization (a solve at any `load` is the same solve), so near-
/// duplicate design points collapse onto one cache entry.
struct Request {
  RequestKind kind = RequestKind::kSolve;

  // --- network shape ---
  int n = 8;            ///< routers per side (row length for kSolve)
  int link_limit = 4;   ///< C, the cross-section link limit (not kSweep,
                        ///< kAppspec)
  int base_flit_bits = 256;  ///< B, the baseline flit width

  // --- kSolve / kSweep / kAppspec ---
  std::string method = "dcsa";  ///< dcsa | onlysa | dnc | exact
  long moves = 10000;           ///< SA move budget (dcsa / onlysa)
  int chains = 1;  ///< > 1 runs a portfolio of chains (kSolve: dcsa / onlysa)

  // --- kEvaluate / kSimulate (workload and load: also kAppspec) ---
  /// Express-link placement as "lo-hi,lo-hi,..." ("" = plain row). The
  /// homogeneous design replicates it over every row and column.
  std::string links;
  /// Scenario identity of the traffic: a synthetic pattern name
  /// (uniform_random, transpose, ...) or a PARSEC model name (canneal,
  /// ...). Deterministically expands to its demand rows
  /// (traffic::DemandRows), so the name is the demand's hash.
  std::string workload = "uniform_random";
  double load = 0.02;     ///< packets/node/cycle offered
  long cycles = 10000;    ///< measurement window (kSimulate)
  std::string routing = "xy";  ///< xy | yx | o1turn (kSimulate)
  int vcs = 4;            ///< virtual channels per port (kSimulate)
  bool vec = false;       ///< virtual-express bypass (kSimulate)

  // --- objective knobs ---
  /// Per-hop contention allowance Tc of the analytic model (kEvaluate).
  double contention_per_hop = 0.0;

  std::uint64_t seed = 1;

  /// Canonical JSON: {"schema", "kind", ...} restricted to the fields the
  /// kind consumes, in a fixed member order. obs::canonical_json of it is
  /// the byte string id() hashes.
  [[nodiscard]] obs::Json to_json() const;

  /// Every parameter under its request-document name, whatever the kind
  /// consumes; a default Request's fields() are the request defaults.
  [[nodiscard]] obs::Json fields() const;

  /// The content-addressed identity: obs::fnv1a64_hex over the canonical
  /// serialization of to_json(). Thread-count and machine invariant; this
  /// is the cache key and the reply correlation id. It writes those bytes
  /// straight from the field list to_json() reads, with no Json built.
  [[nodiscard]] std::string id() const;

  /// Parses a request object (any member order; unknown members are
  /// rejected so typos never silently hash as defaults). Throws
  /// xlp::Error(kParse) on malformed or out-of-range fields.
  [[nodiscard]] static Request from_json(const obs::Json& doc);

  /// Validates field ranges (also called by from_json); throws
  /// xlp::Error(kParse) with a field-naming message.
  void validate() const;

 private:
  /// The one list of identity fields: calls `field(key, value)` for each
  /// member of to_json(), in its order, with only the fields the kind
  /// consumes. `value` is a const char*, std::string, int, long, double
  /// or bool.
  template <typename Field>
  void visit_identity(Field&& field) const;
};

/// Solves a kSolve request: the one solver dispatch of the CLI and the
/// daemon. Of `hooks` only the runtime hooks (series, control,
/// checkpoint_every_moves) are honoured; a non-empty `checkpoint_path`
/// receives the checkpoints. An early stop returns best-so-far with its
/// status. A portfolio run stores its all-chain evaluation count in
/// `*portfolio_evaluations`. With `resume` set the solve continues that
/// checkpoint instead of starting fresh; `request` must then be
/// resumed_request(*resume, ...).
[[nodiscard]] core::PlacementResult solve(
    const Request& request, const core::SaParams& hooks = {},
    const std::string& checkpoint_path = {},
    long* portfolio_evaluations = nullptr,
    const runctl::CheckpointFile* resume = nullptr);

/// The solve request a checkpoint continues: `base` with the checkpoint's
/// n, C, method, move budget and chain count, and a portfolio's seed (an
/// SA checkpoint carries its generator state instead, so `base.seed`
/// stays).
[[nodiscard]] Request resumed_request(const runctl::CheckpointFile& file,
                                      Request base = {});

/// Simulates a kSimulate request; of `hooks` only trace, series and
/// control are honoured. An early stop returns the stats so far.
[[nodiscard]] sim::SimStats simulate(const Request& request,
                                     const sim::SimConfig& hooks = {});

/// Runs a kSweep request: core::sweep_link_limits over the n x n network
/// on Rng(seed) with the zero-load latency model, one point per feasible
/// link limit. `control` (may be null) stops every cell's search; a
/// stopped point carries its best-so-far placement and its status.
[[nodiscard]] std::vector<core::SweepPoint> sweep(
    const Request& request, runctl::RunControl* control = nullptr);

/// Runs a kAppspec request: core::solve_app_specific for the workload's
/// demand on Rng(seed), with the options svc::sweep uses. `control` (may
/// be null) stops the 2n solves of every limit; a stopped design is
/// best-so-far and carries its status.
[[nodiscard]] core::AppSpecificResult appspec(
    const Request& request, runctl::RunControl* control = nullptr);

/// The design point an evaluate/simulate request names.
[[nodiscard]] topo::ExpressMesh design_of(const Request& request);

/// Executes one request to completion and returns its canonical result
/// payload — a Json object with a fixed member order, byte-deterministic
/// for a given request at any thread count (the determinism the cache
/// relies on): solve() / simulate() / sweep() / appspec(), then
/// serialization. `control` may stop every kind but evaluate early; an
/// early stop throws xlp::Error(kState) rather than returning a partial
/// payload, so partial results are never cached.
[[nodiscard]] obs::Json execute_request(const Request& request,
                                        runctl::RunControl* control);

}  // namespace xlp::svc
