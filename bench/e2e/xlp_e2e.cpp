// xlp_e2e — the end-to-end benchmark of the placement service.
//
//   xlp_e2e --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//           [--work-dir DIR] [--out DIR]
//
// Generates one seeded request workload and sends it through
// svc::Server::serve_text, the bytes-in/bytes-out function both xlpd
// transports call. The client runs a closed loop: one client, one request in
// flight, like `xlp submit` and `xlp run`. The workload runs 3 or 5 rounds;
// each round is a fresh child process with a fresh Server on an empty cache
// directory (warm_replay: a copy of a cache primed once per run), and the
// parent records the child's peak RSS with wait4. A request's latency is its
// minimum over the rounds, which filters out the host's short jitter (not a
// slowdown lasting the whole run). The workload size is proportional to
// --seconds.
//
// Every reply is checked (check_reply) and must be byte-identical in every
// round. The last line of stdout is one JSON object,
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics of
// one round with obs::Profiler enabled, an svc.request span around each
// serve_text, and the public svc calls timed as probes after each reply
// against a shadow ResultCache; an untraced round before it is the base of
// the tracing overhead. --out DIR also writes
// BENCH_e2e_<workload>.json (xlp-bench/1, readable by tools/bench_diff) and,
// traced, a collapsed-stack e2e_<workload>.folded.
//
// Exit status: 0 when every reply checked out, 1 on a failed check or a
// crashed round, 2 on a usage error.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "core/objective.hpp"
#include "harness.hpp"
#include "obs/canonical.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "topo/row_topology.hpp"
#include "util/args.hpp"
#include "util/fsio.hpp"
#include "util/parallel.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using xlp::obs::Json;
using Clock = std::chrono::steady_clock;

long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Children per run that only start a Server, beside the measured rounds:
/// set-up time is the median over all of them.
constexpr int kSetupOnlyChildren = 10;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<long>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

// ------------------------------------------------------------------ inputs

/// splitmix64: the generators' own RNG, so no change to the library's Rng can
/// change the benchmark's inputs.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// A request seed: positive and exact as a JSON number.
  long request_seed() { return static_cast<long>(next() >> 34) + 1; }
};

/// Placeholder for the "links" of a design-loop follow-on request; the
/// client fills in the placement the earlier solve returned.
constexpr const char* kLinksSlot = "@links@";

/// One request of the closed loop: a document index, and for design-loop
/// follow-ons the step whose solve reply supplies the links.
struct Step {
  std::size_t doc = 0;
  long links_from = -1;
};

struct Workload {
  std::vector<std::string> docs;   ///< distinct request documents
  std::vector<Step> steps;         ///< the order the client sends them in
  std::vector<std::string> prime;  ///< served once into the cache before
                                   ///< the rounds (warm_replay)

  std::size_t add(std::string doc) {
    docs.push_back(std::move(doc));
    return docs.size() - 1;
  }
  void send(std::size_t doc, long links_from = -1) {
    steps.push_back({doc, links_from});
  }
};

std::string solve_doc(int n, int c, const char* method, long moves,
                      long seed) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                R"({"kind":"solve","n":%d,"c":%d,"method":"%s",)"
                R"("moves":%ld,"seed":%ld})",
                n, c, method, moves, seed);
  return buf;
}

std::string evaluate_doc(int n, int c, const std::string& links,
                         const char* workload, double load) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                R"({"kind":"evaluate","n":%d,"c":%d,"links":"%s",)"
                R"("workload":"%s","load":%g})",
                n, c, links.c_str(), workload, load);
  return buf;
}

std::string simulate_doc(int n, int c, const std::string& links,
                         const char* workload, double load, long cycles,
                         long seed) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                R"({"kind":"simulate","n":%d,"c":%d,"links":"%s",)"
                R"("workload":"%s","load":%g,"cycles":%ld,"seed":%ld})",
                n, c, links.c_str(), workload, load, cycles, seed);
  return buf;
}

/// The evaluate/simulate "links" form of a placement: "lo-hi,lo-hi".
std::string links_of(const xlp::topo::RowTopology& row) {
  std::string out;
  for (const xlp::topo::RowLink& link : row.express_links()) {
    if (!out.empty()) out += ',';
    out += std::to_string(link.lo) + "-" + std::to_string(link.hi);
  }
  return out;
}

/// A random placement of an n-router row that fits C: random express links,
/// each kept when the row still fits.
std::string random_links(SplitMix& rng, int n, int c) {
  std::vector<xlp::topo::RowLink> links;
  for (int tries = 0; tries < 4 * n; ++tries) {
    const int lo = static_cast<int>(rng.next() % static_cast<unsigned>(n - 2));
    const int hi =
        lo + 2 +
        static_cast<int>(rng.next() % static_cast<unsigned>(n - 2 - lo));
    links.push_back({lo, hi});
    if (!xlp::topo::RowTopology(n, links).fits_link_limit(c)) links.pop_back();
  }
  return links_of(xlp::topo::RowTopology(n, links));
}

constexpr long kSolveMoves = 20000;
constexpr long kSimCycles = 500;
/// 8-router row placements that fit C = 4: the plain mesh, the hierarchical
/// HFB design, and two sparser ones.
constexpr const char* kDesigns8[] = {"", "0-2,0-3,1-3,4-6,4-7,5-7", "0-3,3-7",
                                     "0-2,2-5,5-7"};

/// Cold solves over the paper's (n, C) grid; odd seeds dcsa, even onlysa.
/// One unit is one seed per grid point (9 solves).
Workload solve_sweep(std::uint64_t seed, int units) {
  SplitMix rng{seed};
  Workload w;
  for (int s = 0; s < units; ++s)
    for (int n : {8, 16, 32})
      for (int c : {2, 4, 8})
        w.send(w.add(solve_doc(n, c, s % 2 == 1 ? "dcsa" : "onlysa",
                               kSolveMoves, rng.request_seed())));
  return w;
}

/// Cold 8x8 simulations from idle to busy routers. One unit is every design
/// under every traffic point once (28 simulations).
Workload simulate_sweep(std::uint64_t seed, int units) {
  struct Traffic {
    const char* workload;
    double load;
  };
  constexpr Traffic kTraffic[] = {
      {"uniform_random", 0.01}, {"uniform_random", 0.03},
      {"transpose", 0.01},      {"transpose", 0.03},
      {"hotspot", 0.01},        {"hotspot", 0.03},
      {"uniform_random", 0.05}};
  SplitMix rng{seed};
  Workload w;
  for (int s = 0; s < units; ++s)
    for (const char* links : kDesigns8)
      for (const Traffic& t : kTraffic)
        w.send(w.add(simulate_doc(8, 4, links, t.workload, t.load, kSimCycles,
                                  rng.request_seed())));
  return w;
}

/// 96 documents primed into the cache (32 solves, 32 evaluates, 32
/// simulates), then replayed in a skewed order: every request is a hit.
/// One unit is 1000 replays.
Workload warm_replay(std::uint64_t seed, int units) {
  SplitMix rng{seed};
  std::vector<std::string> solves;
  std::vector<std::string> evaluates;
  std::vector<std::string> simulates;
  for (int i = 0; i < 32; ++i)
    solves.push_back(solve_doc(i % 2 == 0 ? 8 : 16, i % 4 < 2 ? 2 : 4,
                               i % 8 < 4 ? "dcsa" : "onlysa", 2000,
                               rng.request_seed()));
  for (int n : {8, 16})
    for (const char* links : kDesigns8)
      for (const char* workload :
           {"uniform_random", "transpose", "canneal", "hotspot"})
        evaluates.push_back(evaluate_doc(n, 4, links, workload, 0.02));
  for (const char* links : kDesigns8)
    for (const char* workload : {"uniform_random", "transpose"})
      for (int k = 0; k < 4; ++k)
        simulates.push_back(simulate_doc(8, 4, links, workload,
                                         0.01 * (1 + k % 2), 200,
                                         rng.request_seed()));
  // Kinds interleave, so the skew below weights all three alike.
  Workload w;
  for (std::size_t i = 0; i < solves.size(); ++i) {
    w.add(solves[i]);
    w.add(evaluates[i]);
    w.add(simulates[i]);
  }
  w.prime = w.docs;
  const long replays = 1000L * units;
  for (long r = 0; r < replays; ++r) {
    const double u = rng.uniform();
    w.send(static_cast<std::size_t>(u * u *
                                    static_cast<double>(w.docs.size())));
  }
  return w;
}

/// The `xlp run` design loop as requests: solve, evaluate the returned
/// placement under four traffic models, simulate it when n = 8, then
/// resubmit eight earlier documents. One unit is one seed over n in {8, 16}
/// x C in {2, 4, 8} (81 requests).
///
/// Each unit evaluates at its own load. The analytic model's answer does not
/// depend on it, but two solves that return the same placement then still
/// make distinct evaluate requests: exactly the resubmissions are hits (59%),
/// whatever the seed. No recorded traffic sets the resubmission rate; eight
/// per chain makes the median request a hit. With three, the median was an
/// n = 8 evaluate miss, whose time is mostly the durable cache put's fsync,
/// and the shared disk spread latency_p50_ms by 33% between runs.
/// evaluate_sweep measures the write path with a longer execution per put.
Workload design_session(std::uint64_t seed, int units) {
  SplitMix rng{seed};
  Workload w;
  for (int s = 0; s < units; ++s)
    for (int n : {8, 16})
      for (int c : {2, 4, 8}) {
        const long solve_step = static_cast<long>(w.steps.size());
        w.send(w.add(
            solve_doc(n, c, "dcsa", kSolveMoves, rng.request_seed())));
        for (const char* workload :
             {"uniform_random", "transpose", "canneal", "hotspot"})
          w.send(w.add(evaluate_doc(n, c, kLinksSlot, workload,
                                    0.01 + 0.002 * s)),
                 solve_step);
        if (n == 8)
          w.send(w.add(simulate_doc(n, c, kLinksSlot, "uniform_random", 0.02,
                                    kSimCycles, rng.request_seed())),
                 solve_step);
        for (int k = 0; k < 8; ++k) {
          const Step earlier = w.steps[rng.next() % w.steps.size()];
          w.steps.push_back(earlier);
        }
      }
  return w;
}

/// Analytic checks of candidate placements: random 16-router placements that
/// fit C, each evaluated under four traffic models. Every request misses, so
/// each one runs the latency model and makes a durable cache put: the median
/// request is a cache write. At n = 16 the model runs for milliseconds,
/// which keeps the put's disk latency from setting the numbers alone. One
/// unit is 12 placements x 4 models (48 requests).
Workload evaluate_sweep(std::uint64_t seed, int units) {
  SplitMix rng{seed};
  Workload w;
  std::set<std::string> placed;
  for (int u = 0; u < units; ++u)
    for (int c : {2, 4, 8})
      for (int p = 0; p < 4; ++p) {
        std::string links = random_links(rng, 16, c);
        while (!placed.insert(std::to_string(c) + links).second)
          links = random_links(rng, 16, c);
        for (const char* workload :
             {"uniform_random", "transpose", "canneal", "hotspot"})
          w.send(w.add(evaluate_doc(16, c, links, workload, 0.02)));
      }
  return w;
}

struct WorkloadSpec {
  const char* name;
  Workload (*make)(std::uint64_t seed, int units);
  /// Rounds per run: a request's latency is its best over them. Five
  /// filter the host's short jitter out of millisecond requests; five
  /// rounds of >= 100 of the ~75 ms simulations would not fit in one run,
  /// so simulate_sweep takes three.
  int rounds;
  /// Measured wall time of one unit in one round, client checks included
  /// (Release build, 4-core x86 host); sizes the workload so that all
  /// rounds take about --seconds.
  double unit_seconds;
  /// Smallest size that still leaves >= 10 samples beyond p90.
  int min_units;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"solve_sweep", solve_sweep, 5, 0.35, 12},
    {"simulate_sweep", simulate_sweep, 3, 2.75, 4},
    {"warm_replay", warm_replay, 5, 0.135, 1},
    {"design_session", design_session, 5, 0.7, 2},
    {"evaluate_sweep", evaluate_sweep, 5, 0.2, 3},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return &spec;
  return nullptr;
}

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string work_dir;
  std::string out_dir;

  [[nodiscard]] Workload workload() const {
    const double per_round = seconds / spec->rounds;
    return spec->make(
        seed, std::max(spec->min_units, static_cast<int>(std::lround(
                                            per_round / spec->unit_seconds))));
  }
};

// ------------------------------------------------------------------ checks

/// "8:[(0,2)(2,7)]" -> row topology; throws on anything else.
xlp::topo::RowTopology parse_placement(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos || text.size() < colon + 3 ||
      text[colon + 1] != '[' || text.back() != ']')
    throw std::runtime_error("placement '" + text + "' is malformed");
  const int n = std::stoi(text.substr(0, colon));
  std::vector<xlp::topo::RowLink> links;
  std::size_t pos = colon + 2;
  while (pos < text.size() - 1) {
    int lo = 0;
    int hi = 0;
    int used = 0;
    if (std::sscanf(text.c_str() + pos, "(%d,%d)%n", &lo, &hi, &used) != 2 ||
        used == 0)
      throw std::runtime_error("placement '" + text + "' is malformed");
    links.push_back({lo, hi});
    pos += static_cast<std::size_t>(used);
  }
  return xlp::topo::RowTopology(n, links);
}

/// What one checked reply contributed.
struct Checked {
  std::string failure;  ///< empty when the reply is right
  bool cache_hit = false;
  std::string kind;
  double model = 0.0;  ///< the packet latency the reply reports, in cycles
  long evaluations = 0;
  long packets_finished = 0;
  std::string links;    ///< solve: the placement as evaluate links
  std::string payload;  ///< the result object's bytes (traced runs only)
};

/// Checks one reply against its request:
///  * solve: the placement parses, fits C, and `value` is bit-equal to
///    core::RowObjective(n).evaluate(placement);
///  * simulate: drained, and every offered packet finished;
///  * evaluate: total == head + serialization, and it is finite.
Checked check_reply(const std::string& request_text,
                    const std::string& reply_text, bool want_payload) {
  Checked out;
  const auto request = Json::parse(request_text);
  const auto reply = Json::parse(reply_text);
  if (!request || !reply || !reply->is_object()) {
    out.failure = "reply is not a JSON object";
    return out;
  }
  if (const Json* error = reply->find("error")) {
    out.failure = "error reply: " + error->dump();
    return out;
  }
  const Json* result = reply->find("result");
  const Json* hit = reply->find("cache_hit");
  if (result == nullptr || !result->is_object() || hit == nullptr) {
    out.failure = "reply has no result";
    return out;
  }
  const auto field = [&](const char* name) -> const Json& {
    const Json* value = result->find(name);
    if (value == nullptr)
      throw std::runtime_error(std::string("result lacks '") + name + "'");
    return *value;
  };
  try {
    out.cache_hit = hit->as_bool();
    out.kind = request->find("kind")->as_string();
    if (want_payload) out.payload = result->dump();
    if (field("kind").as_string() != out.kind)
      throw std::runtime_error("result kind differs from the request's");
    if (out.kind == "solve") {
      const int n = static_cast<int>(request->find("n")->as_long());
      const int c = static_cast<int>(request->find("c")->as_long());
      const xlp::topo::RowTopology row =
          parse_placement(field("placement").as_string());
      if (row.size() != n || !row.fits_link_limit(c))
        throw std::runtime_error("placement does not fit P(n, C)");
      const double value = field("value").as_number();
      if (value !=
          xlp::core::RowObjective(n, xlp::route::HopWeights{}).evaluate(row))
        throw std::runtime_error("value is not the placement's objective");
      out.model = value;
      out.evaluations = field("evaluations").as_long();
      out.links = links_of(row);
    } else if (out.kind == "simulate") {
      if (!field("drained").as_bool())
        throw std::runtime_error("simulation did not drain");
      out.packets_finished = field("packets_finished").as_long();
      if (out.packets_finished != field("packets_offered").as_long() ||
          out.packets_finished <= 0)
        throw std::runtime_error("finished packets differ from offered");
      out.model = field("avg_latency").as_number();
    } else {
      const double total = field("total").as_number();
      if (!std::isfinite(total) ||
          total != field("head").as_number() +
                       field("serialization").as_number())
        throw std::runtime_error("total is not head + serialization");
      out.model = total;
    }
  } catch (const std::exception& e) {
    out.failure = e.what();
  }
  return out;
}

// ------------------------------------------------------------ child round

int server_threads() { return std::min(4, xlp::util::hardware_threads()); }

/// Profiler scopes inside src/ whose self time the traced run reports as a
/// share of request time.
constexpr const char* kScopes[] = {
    "sa.anneal",     "sa.evaluate",        "dnc.initial",   "dnc.merge",
    "dnc.bb_leaf",   "bb.solve",           "route.monotone_sp",
    "route.fw_rows", "route.fw_cols",      "sim.run",       "sim.traverse",
    "sim.inject",    "sim.route_vc_alloc", "sim.sw_alloc"};

/// Root scope of the evaluate probe. The latency module has no scopes of its
/// own, so the probe's self time is the latency model's, routing excluded.
constexpr const char* kEvaluateProbe = "probe.evaluate";

/// Times the public svc calls a request passes through, outside the timed
/// serve_text call: parse, id, a put into a shadow cache (first sighting of
/// an id only) and a get from it, the reply serialization, and
/// svc::execute_request on each evaluate the Server executed.
struct Probes {
  explicit Probes(const std::string& dir)
      : shadow(dir, 4096, &shadow_metrics) {}

  /// Returns parse + id + get + serialize: the request's hit path without
  /// the Server's own dispatch. `executed` marks a request the Server ran,
  /// whose put is on its path too.
  double run(const std::string& doc, const std::string& payload,
             bool executed) {
    auto start = Clock::now();
    const xlp::svc::Request request =
        xlp::svc::Request::from_json(*Json::parse(doc));
    const double parse_s = seconds_since(start);
    start = Clock::now();
    const std::string request_id = request.id();
    const double id_s = seconds_since(start);
    if (executed && request.kind == xlp::svc::RequestKind::kEvaluate) {
      xlp::obs::Profiler::enable();
      start = Clock::now();
      {
        const xlp::obs::ProfileScope scope(kEvaluateProbe);
        (void)xlp::svc::execute_request(request, nullptr);
      }
      evaluate.push_back(seconds_since(start));
      xlp::obs::Profiler::disable();
    }
    if (seen.insert(request_id).second) {
      start = Clock::now();
      (void)shadow.put(request_id, payload);
      put.push_back(seconds_since(start));
      if (executed) path_s += put.back();
    }
    start = Clock::now();
    const auto cached = shadow.get(request_id);
    const double get_s = seconds_since(start);
    xlp::svc::Reply reply;
    reply.request_id = request_id;
    reply.cache_hit = true;
    reply.payload_text = cached.value_or(payload);
    start = Clock::now();
    (void)reply.to_text();
    const double serialize_s = seconds_since(start);
    parse.push_back(parse_s);
    id.push_back(id_s);
    get.push_back(get_s);
    serialize.push_back(serialize_s);
    path_s += parse_s + id_s + get_s + serialize_s;
    return parse_s + id_s + get_s + serialize_s;
  }

  xlp::obs::MetricsRegistry shadow_metrics;
  xlp::svc::ResultCache shadow;
  std::set<std::string> seen;
  std::vector<double> parse, id, get, put, serialize, evaluate;
  double path_s = 0.0;  ///< probed stages on the requests' own paths
};

/// Sum and count of the latency, in cycles, that replies of one kind report.
struct ModelSum {
  double sum = 0.0;
  long count = 0;
  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// A round's running totals over its checked replies.
struct Tally {
  long steps = 0;
  long hits = 0;
  long evaluations = 0;  ///< executed solves' objective evaluations
  long packets = 0;      ///< executed simulations' finished packets
  /// Per reply kind, over each distinct request once: a resubmission
  /// returns the same bytes, so how often a document recurs does not weigh
  /// in the model's answer.
  std::map<std::string, ModelSum> model;
  double request_s = 0.0;  ///< summed svc.request span
  double solve_s = 0.0;    ///< ... of executed solves
  double simulate_s = 0.0;  ///< ... of executed simulations
};

/// Per-layer numbers of one traced round; `dispatch` holds the Server's own
/// cost per hit, `latency_s` the evaluate probes' self time.
Json layer_metrics(const xlp::obs::ProfileReport& report, const Probes& probes,
                   const std::vector<double>& dispatch, const Tally& t,
                   double latency_s) {
  std::map<std::string, double> self_s;
  long cycles = 0;
  for (const xlp::obs::ProfileEntry& e : report.entries()) {
    self_s[e.name] += e.exclusive_seconds;
    if (e.name == "sim.traverse") cycles += e.hits;  // one per cycle
  }
  const auto us = [](const std::vector<double>& v) { return median(v) * 1e6; };
  const auto rate = [](double amount, double seconds) {
    return seconds > 0.0 ? amount / seconds : 0.0;
  };
  const auto model = [&](const char* kind) {
    const auto it = t.model.find(kind);
    return it == t.model.end() ? 0.0 : it->second.mean();
  };
  Json layers = Json::object();
  layers.set("svc.request_ms", t.request_s / static_cast<double>(t.steps) * 1e3)
      .set("svc.parse_us", us(probes.parse))
      .set("svc.id_us", us(probes.id))
      .set("svc.cache_get_us", us(probes.get))
      .set("svc.cache_put_us", us(probes.put))
      .set("svc.serialize_us", us(probes.serialize))
      .set("svc.dispatch_us", us(dispatch))
      .set("svc.executed", t.steps - t.hits)
      .set("svc.cache_hits", t.hits)
      .set("svc.hit_ratio",
           static_cast<double>(t.hits) / static_cast<double>(t.steps))
      .set("core.evaluations", t.evaluations)
      .set("core.evals_per_sec",
           rate(static_cast<double>(t.evaluations), t.solve_s))
      .set("core.solve_objective", model("solve"))
      .set("latency.evaluate_ms", median(probes.evaluate) * 1e3)
      .set("latency.evaluate_cycles", model("evaluate"))
      .set("sim.cycles", cycles)
      .set("sim.cycles_per_sec",
           rate(static_cast<double>(cycles), t.simulate_s))
      .set("sim.packets_finished", t.packets)
      .set("sim.avg_latency_cycles", model("simulate"))
      .set("latency.evaluate_pct", latency_s / t.request_s * 1e2);
  // What the named layers explain of the request time: scope self times,
  // the latency model's, every request's probed svc stages, and the median
  // dispatch per request.
  double covered = probes.path_s + latency_s +
                   median(dispatch) * static_cast<double>(t.steps);
  for (const char* scope : kScopes) {
    covered += self_s[scope];
    layers.set(std::string(scope) + "_pct",
               self_s[scope] / t.request_s * 1e2);
  }
  layers.set("trace.covered_pct", covered / t.request_s * 1e2);
  return layers;
}

/// What a child process does once its Server is ready.
enum class Mode {
  kPrime,  ///< serve the prime documents: the cache later rounds copy
  kSetup,  ///< nothing: one more set-up time sample
  kServe,  ///< one measured round
};

/// One child process: builds a fresh Server on `dir`/cache, does what `mode`
/// says, and writes `dir`/result.json. Set-up ends when the Server is ready;
/// the benchmark's own request generator runs after that.
int run_round(const Options& opt, const std::string& dir, Mode mode) {
  xlp::svc::ServerOptions server_options;
  server_options.cache_dir = (fs::path(dir) / "cache").string();
  server_options.threads = server_threads();
  xlp::svc::Server server(server_options);
  const long ready_ns = now_ns();
  const std::string result_path = (fs::path(dir) / "result.json").string();

  Json failures = Json::array();
  if (mode != Mode::kServe) {
    if (mode == Mode::kPrime)
      for (const std::string& doc : opt.workload().prime) {
        const Checked c = check_reply(doc, server.serve_text(doc), false);
        if (!c.failure.empty())
          failures.push("priming " + doc + ": " + c.failure);
      }
    return xlp::util::atomic_write_file(result_path,
                                        Json::object()
                                            .set("ready_ns", ready_ns)
                                            .set("failures",
                                                 std::move(failures))
                                            .dump())
               ? 0
               : 1;
  }

  const Workload w = opt.workload();
  std::optional<Probes> probes;
  if (opt.trace) probes.emplace((fs::path(dir) / "shadow").string());
  // Per-step records stay in flat vectors of numbers: a Json array or a
  // string per step would dominate the round's peak RSS on warm_replay.
  const std::size_t steps = w.steps.size();
  std::vector<double> latency_ns(steps);
  std::vector<std::uint64_t> digests(steps);
  Tally t;
  t.steps = static_cast<long>(steps);
  std::unordered_map<long, std::string> solved_links;
  // The Server's own dispatch cost, sampled on every hit as its span minus
  // its probed stages: in the round, and in a replay of the round's
  // distinct documents afterwards, which gives workloads without hits
  // their samples.
  std::vector<double> dispatch;
  std::vector<std::pair<std::string, double>> distinct;
  std::set<std::string> sent;
  for (std::size_t i = 0; i < steps; ++i) {
    const Step& step = w.steps[i];
    std::string doc = w.docs[step.doc];
    if (step.links_from >= 0)
      doc.replace(doc.find(kLinksSlot), std::string(kLinksSlot).size(),
                  solved_links[step.links_from]);

    std::string reply;
    const auto start = Clock::now();
    // Traced, the profiler records only while the request is served: the
    // client's checks and probes below stay out of the layer times.
    if (probes) xlp::obs::Profiler::enable();
    {
      const xlp::obs::ProfileScope span("svc.request");
      reply = server.serve_text(doc);
    }
    xlp::obs::Profiler::disable();
    const double elapsed = seconds_since(start);

    latency_ns[i] = elapsed * 1e9;
    digests[i] = std::stoull(xlp::obs::fnv1a64_hex(reply), nullptr, 16);
    t.request_s += elapsed;
    const Checked c = check_reply(doc, reply, opt.trace);
    if (!c.failure.empty()) {
      failures.push("step " + std::to_string(i) + " " + doc + ": " +
                    c.failure);
      continue;
    }
    const bool first = sent.insert(doc).second;
    if (first) {
      t.model[c.kind].sum += c.model;
      ++t.model[c.kind].count;
    }
    if (c.kind == "solve") solved_links[static_cast<long>(i)] = c.links;
    if (c.cache_hit) {
      ++t.hits;
    } else {
      t.evaluations += c.evaluations;
      t.packets += c.packets_finished;
      if (c.kind == "solve") t.solve_s += elapsed;
      if (c.kind == "simulate") t.simulate_s += elapsed;
    }
    if (probes) {
      const double probe_s = probes->run(doc, c.payload, !c.cache_hit);
      if (c.cache_hit) dispatch.push_back(elapsed - probe_s);
      if (first) distinct.emplace_back(doc, probe_s);
    }
  }

  ModelSum all;
  for (const auto& [kind, m] : t.model) {
    all.sum += m.sum;
    all.count += m.count;
  }
  Json fields = Json::object();
  fields.set("ready_ns", ready_ns)
      .set("failures", std::move(failures))
      .set("model_latency_cycles", all.mean())
      .set("cache_hits", t.hits);
  if (probes) {
    for (const auto& [doc, probe_s] : distinct) {
      const auto start = Clock::now();
      (void)server.serve_text(doc);
      dispatch.push_back(seconds_since(start) - probe_s);
    }
    // The evaluate probes' scopes stay out of the served requests' layer
    // times and flame graph.
    const xlp::obs::ProfileReport recorded = xlp::obs::Profiler::snapshot();
    std::vector<xlp::obs::ProfileEntry> served;
    double latency_s = 0.0;
    for (const xlp::obs::ProfileEntry& e : recorded.entries()) {
      if (e.path == kEvaluateProbe)
        latency_s = e.exclusive_seconds;
      else if (!e.path.starts_with(kEvaluateProbe))
        served.push_back(e);
    }
    const xlp::obs::ProfileReport report(std::move(served));
    fields
        .set("layers", layer_metrics(report, *probes, dispatch, t, latency_s))
        .set("folded", report.to_collapsed());
  }
  std::string text = "{\"latency_ns\":[";
  for (std::size_t i = 0; i < steps; ++i)
    text += (i > 0 ? "," : "") + std::to_string(std::llround(latency_ns[i]));
  text += "],\"digests\":[";
  for (std::size_t i = 0; i < steps; ++i) {
    char hex[20];
    std::snprintf(hex, sizeof(hex), "\"%016llx\"",
                  static_cast<unsigned long long>(digests[i]));
    text += (i > 0 ? "," : "") + std::string(hex);
  }
  text += "]," + fields.dump().substr(1);
  return xlp::util::atomic_write_file(result_path, text) ? 0 : 1;
}

// ------------------------------------------------------------------ parent

struct Spawned {
  long spawned_ns = 0;  ///< steady clock at spawn, comparable to ready_ns
  double peak_rss_mb = 0.0;
};

/// Runs this program as one round in `dir` and waits for it; nullopt when
/// the round could not start or did not exit cleanly.
std::optional<Spawned> spawn_round(const char* self, const Options& opt,
                                   const std::string& dir, Mode mode) {
  std::vector<std::string> args = {self,
                                   "--round",
                                   dir,
                                   "--workload",
                                   opt.spec->name,
                                   "--seed",
                                   std::to_string(opt.seed),
                                   "--seconds",
                                   std::to_string(opt.seconds),
                                   "--trace",
                                   opt.trace ? "1" : "0"};
  if (mode == Mode::kPrime) args.emplace_back("--prime");
  if (mode == Mode::kSetup) args.emplace_back("--setup-only");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  Spawned out;
  out.spawned_ns = now_ns();
  pid_t pid = 0;
  if (posix_spawn(&pid, self, nullptr, nullptr, argv.data(), environ) != 0) {
    std::fprintf(stderr, "xlp_e2e: cannot start %s\n", self);
    return std::nullopt;
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0)
    if (errno != EINTR) return std::nullopt;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "xlp_e2e: round in %s failed (wait status %d)\n",
                 dir.c_str(), status);
    return std::nullopt;
  }
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

std::optional<Json> read_result(const std::string& dir) {
  const auto text =
      xlp::util::read_file((fs::path(dir) / "result.json").string());
  if (!text) return std::nullopt;
  return Json::parse(*text);
}

/// Nearest-rank quantile of sorted values.
double quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

const char* layer_unit(const std::string& name) {
  for (const char* count : {"svc.executed", "svc.cache_hits",
                            "core.evaluations", "sim.cycles",
                            "sim.packets_finished"})
    if (name == count) return "count";
  if (name == "svc.hit_ratio") return "fraction";
  if (name == "core.solve_objective" || name.ends_with("_cycles"))
    return "cycles";
  if (name.ends_with("_pct")) return "%";
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_ms")) return "ms";
  return "1/s";
}

void write_artifacts(const Options& opt, int rounds,
                     const std::vector<Metric>& e2e,
                     const std::vector<Metric>& layers,
                     const std::vector<double>& sorted, double total,
                     const std::string& folded) {
  xlp::bench::BenchResult result;
  result.suite = std::string("e2e_") + opt.spec->name;
  result.name = opt.spec->name;
  result.tags = "e2e";
  result.repeats = rounds;
  result.items = static_cast<long>(sorted.size());
  result.min_ns = sorted.front() * 1e9;
  result.median_ns = quantile(sorted, 0.50) * 1e9;
  result.mean_ns = total / static_cast<double>(sorted.size()) * 1e9;
  result.total_seconds = total;
  result.rates = {{"requests_per_sec", e2e[0].value}};
  result.times = {{"latency_p90_ns", e2e[2].value * 1e6},
                  {"setup_ns", e2e[3].value * 1e9}};
  result.counters = {{"peak_rss_mb", e2e[4].value},
                     {"model_latency_cycles", e2e[5].value}};
  if (!layers.empty()) {
    Json table = Json::array();
    for (const Metric& m : layers)
      table.push(Json::object()
                     .set("name", m.name)
                     .set("value", m.value)
                     .set("unit", m.unit));
    result.payload = Json::object().set("layers", std::move(table));
  }
  xlp::bench::RunnerOptions runner_options;
  runner_options.warmup = 0;
  runner_options.repeats = rounds;
  runner_options.provenance = xlp::obs::Provenance::collect(opt.seed);
  const xlp::bench::Runner runner(runner_options);
  const xlp::bench::SuiteReport report{result.suite, {result}};
  if (xlp::bench::write_bench_json(opt.out_dir, report.suite,
                                   runner.suite_to_json(report))
          .empty())
    std::fprintf(stderr, "xlp_e2e: cannot write into %s\n",
                 opt.out_dir.c_str());
  if (opt.trace &&
      !xlp::util::atomic_write_file(
          (fs::path(opt.out_dir) / (result.suite + ".folded")).string(),
          folded))
    std::fprintf(stderr, "xlp_e2e: cannot write the folded profile\n");
}

int run_parent(const char* self, const Options& opt) {
  // The per-layer numbers come from one traced round of the same size,
  // after one untraced round that gives the tracing overhead its base.
  const int rounds = opt.trace ? 2 : opt.spec->rounds;
  Options untraced = opt;
  untraced.trace = false;
  std::error_code ec;
  fs::create_directories(opt.work_dir, ec);
  std::string run_dir = (fs::path(opt.work_dir) / "run-XXXXXX").string();
  if (mkdtemp(run_dir.data()) == nullptr) {
    std::fprintf(stderr, "xlp_e2e: cannot create a run directory in %s\n",
                 opt.work_dir.c_str());
    return 1;
  }
  // Pinning the provenance sha keeps the Server constructor's
  // `git rev-parse` out of the measured set-up.
  setenv("XLP_GIT_SHA", "unknown", 0);

  long failed = 0;
  const auto fail = [&](const std::string& what) {
    ++failed;
    std::fprintf(stderr, "xlp_e2e: FAIL %s\n", what.c_str());
  };
  const auto child_dir = [&](int k) {
    return (fs::path(run_dir) / ("child-" + std::to_string(k))).string();
  };
  // A spawned child's ru_maxrss starts from the parent's peak RSS, so the
  // parent stays small until the last child has run: only the children
  // generate the workload, and their results are read after all of them.
  // Children 0 .. rounds-1 are the measured rounds; the rest only add
  // set-up samples. Each starts from a copy of the priming child's cache,
  // which is empty unless the workload primes one.
  const fs::path primed = fs::path(run_dir) / "primed";
  fs::create_directories(primed, ec);
  std::vector<Spawned> spawned;
  bool ok = spawn_round(self, opt, primed.string(), Mode::kPrime).has_value();
  for (int k = 0; ok && k < rounds + kSetupOnlyChildren; ++k) {
    fs::create_directories(child_dir(k), ec);
    fs::copy(primed / "cache", fs::path(child_dir(k)) / "cache",
             fs::copy_options::recursive, ec);
    const auto r = spawn_round(self, k == 0 ? untraced : opt, child_dir(k),
                               k < rounds ? Mode::kServe : Mode::kSetup);
    ok = r.has_value();
    if (ok) spawned.push_back(*r);
    fs::remove_all(fs::path(child_dir(k)) / "cache", ec);
  }
  if (const auto r = ok ? read_result(primed.string()) : std::nullopt) {
    const Json& failures = *r->find("failures");
    for (std::size_t f = 0; f < failures.size(); ++f)
      fail(failures.at(f).as_string());
  }
  // Each child's steady-clock reading when its first request was ready; the
  // clock is system-wide, so this is its set-up time.
  std::vector<double> setup;
  for (std::size_t k = 0; ok && k < spawned.size(); ++k) {
    const auto doc = read_result(child_dir(static_cast<int>(k)));
    ok = doc.has_value();
    if (ok)
      setup.push_back(static_cast<double>(doc->find("ready_ns")->as_long() -
                                          spawned[k].spawned_ns) *
                      1e-9);
  }

  // Per-request best-of-rounds latency; reply bytes must match round 1.
  std::size_t n = 0;
  std::vector<double> best;
  std::vector<std::string> digests0;
  std::vector<double> round_total(static_cast<std::size_t>(rounds), 0.0);
  Json layer_doc = Json::object();
  std::string folded;
  double model_latency = 0.0;
  long hits = 0;
  for (int k = 0; ok && k < rounds; ++k) {
    const auto doc = read_result(child_dir(k));
    if (k == 0 && doc) {
      n = doc->find("digests")->size();
      best.assign(n, 1e300);
    }
    if (!doc || n == 0 || doc->find("digests")->size() != n) {
      ok = false;
      break;
    }
    const Json& latency = *doc->find("latency_ns");
    const Json& digests = *doc->find("digests");
    for (std::size_t i = 0; i < n; ++i) {
      round_total[static_cast<std::size_t>(k)] +=
          latency.at(i).as_number() * 1e-9;
      best[i] = std::min(best[i], latency.at(i).as_number() * 1e-9);
      if (k == 0)
        digests0.push_back(digests.at(i).as_string());
      else if (digests.at(i).as_string() != digests0[i])
        fail("round " + std::to_string(k + 1) + " step " + std::to_string(i) +
             ": reply bytes differ from round 1");
    }
    const Json& failures = *doc->find("failures");
    for (std::size_t f = 0; f < failures.size(); ++f)
      fail("round " + std::to_string(k + 1) + ": " +
           failures.at(f).as_string());
    if (k == 0) {
      model_latency = doc->find("model_latency_cycles")->as_number();
      hits = doc->find("cache_hits")->as_long();
    }
    if (opt.trace && k == 1) {
      layer_doc = *doc->find("layers");
      folded = doc->find("folded")->as_string();
      layer_doc.set("trace.overhead_pct",
                    (round_total[1] / round_total[0] - 1.0) * 1e2);
    }
  }
  fs::remove_all(run_dir, ec);
  if (!ok) {
    std::fprintf(stderr, "xlp_e2e: a round did not complete\n");
    return 1;
  }

  std::vector<double> sorted = best;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  for (const double s : best) total += s;
  std::vector<double> rss;
  for (int k = 0; k < rounds; ++k) rss.push_back(spawned[k].peak_rss_mb);
  const std::vector<Metric> e2e = {
      {"requests_per_sec", static_cast<double>(n) / total, "req/s"},
      {"latency_p50_ms", quantile(sorted, 0.50) * 1e3, "ms"},
      {"latency_p90_ms", quantile(sorted, 0.90) * 1e3, "ms"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"model_latency_cycles", model_latency, "cycles"}};  std::string all_digests;
  for (const std::string& d : digests0) all_digests += d;
  std::printf("xlp_e2e workload=%s seed=%llu rounds=%d requests=%zu "
              "threads=%d trace=%d\n",
              opt.spec->name, static_cast<unsigned long long>(opt.seed),
              rounds, n, server_threads(), opt.trace ? 1 : 0);
  std::printf("  reply digest %s: %zu replies, identical in %d rounds\n",
              xlp::obs::fnv1a64_hex(all_digests).c_str(), n, rounds);
  std::printf("  cache hits %ld of %zu requests per round\n", hits, n);
  for (const Metric& m : e2e)
    std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("  latencies are best of %d rounds per request: %zu samples, "
              "%zu beyond p90\n",
              rounds, n,
              n - static_cast<std::size_t>(
                      std::ceil(0.9 * static_cast<double>(n))));

  std::vector<Metric> layers;
  for (const auto& [name, value] : layer_doc.members())
    layers.push_back({name, value.as_number(), layer_unit(name)});
  if (opt.trace) {
    std::printf("  per layer, from the traced round:\n");
    for (const Metric& m : layers)
      std::printf("    %-26s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  if (!opt.out_dir.empty())
    write_artifacts(opt, rounds, e2e, layers, sorted, total, folded);

  Json metrics = Json::object();
  for (const Metric& m : opt.trace ? layers : e2e)
    metrics.set(m.name,
                Json::object().set("value", m.value).set("unit", m.unit));
  std::printf("%s\n", Json::object()
                          .set("correct", failed == 0)
                          .set("attempted", static_cast<long>(n) * rounds)
                          .set("failed", failed)
                          .set("metrics", std::move(metrics))
                          .dump()
                          .c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const xlp::Args args(argc, argv);
  Options opt;
  opt.spec = find_workload(args.get_or("workload", ""));
  opt.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opt.seconds = args.get_double("seconds", 15.0);
  opt.trace = args.get_long("trace", 0) != 0;
  opt.work_dir = args.get_or("work-dir", ".bench_build/e2e-work");
  opt.out_dir = args.get_or("out", "");
  const std::string round = args.get_or("round", "");
  const Mode mode = args.has("prime")        ? Mode::kPrime
                    : args.has("setup-only") ? Mode::kSetup
                                             : Mode::kServe;
  if (opt.spec == nullptr || opt.seconds <= 0.0 ||
      !args.unknown_keys().empty()) {
    std::fprintf(stderr,
                 "usage: xlp_e2e --workload <solve_sweep|simulate_sweep|"
                 "warm_replay|design_session|evaluate_sweep> [--seed S] "
                 "[--seconds T] "
                 "[--trace 0|1] [--work-dir DIR] [--out DIR]\n");
    return 2;
  }
  try {
    return round.empty() ? run_parent(argv[0], opt)
                         : run_round(opt, round, mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlp_e2e: %s\n", e.what());
    return 1;
  }
}
