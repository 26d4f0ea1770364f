// All benchmark suites, registered explicitly via register_all_suites().
// micro_core carries the kernel benchmarks that used to live on
// google-benchmark; sim measures simulator throughput; scalability and
// fault_campaign wrap the corresponding experiments so their series land
// in schema-versioned BENCH_*.json documents. The paper and ablation
// suites live in paper.cpp.

#include "suites.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/branch_bound.hpp"
#include "core/c_sweep.hpp"
#include "core/delta_objective.hpp"
#include "core/dnc.hpp"
#include "core/drivers.hpp"
#include "core/objective.hpp"
#include "core/portfolio.hpp"
#include "core/sa.hpp"
#include "exp/fault_campaign.hpp"
#include "exp/scenarios.hpp"
#include "harness.hpp"
#include "latency/model.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "route/directional_paths.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"
#include "svc/server.hpp"
#include "topo/builders.hpp"
#include "topo/connection_matrix.hpp"
#include "traffic/demand.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace xlp::bench {

namespace {

// Keeps results observable so the optimizer cannot delete a kernel body.
volatile double g_sink = 0.0;

topo::RowTopology sample_row(int n, int limit) {
  Rng rng(static_cast<std::uint64_t>(n * 131 + limit));
  return topo::ConnectionMatrix::random(n, limit, rng, 0.5).decode();
}

constexpr long kBenchAnnealMoves = 500;

// The micro_core anneal: 500 moves at C = 4 from a fixed random matrix,
// scored by the full evaluator or by the delta evaluator, under the uniform
// objective or under random pair weights (the app-specific objective).
core::SaResult bench_anneal(int n, bool delta_eval, bool weighted = false) {
  std::vector<double> weights;
  if (weighted) {
    Rng weight_rng(11);
    weights.resize(static_cast<std::size_t>(n) * n);
    for (double& w : weights) w = weight_rng.uniform01();
  }
  const core::RowObjective obj =
      weighted ? core::RowObjective(n, route::HopWeights{}, std::move(weights))
               : core::RowObjective(n, route::HopWeights{});
  Rng rng(3);
  core::SaParams params;
  params.total_moves = kBenchAnnealMoves;
  params.moves_per_cool = 25;
  params.delta_eval = delta_eval;
  const auto initial = topo::ConnectionMatrix::random(n, 4, rng, 0.5);
  Rng move_rng(7);
  return core::anneal_connection_matrix(initial, obj, params, move_rng);
}

// A delta-driven bench_anneal that also reports the delta layer's work per
// move, from the counters every delta-driven anneal adds to the global
// registry: they read the same on any host, so the --deterministic
// document keeps them.
void delta_moves_body(int n, bool weighted, BenchRun& run) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const long columns_before = metrics.counter("core.delta.columns");
  const long restored_before = metrics.counter("core.delta.restored_bytes");
  const core::SaResult result = bench_anneal(n, true, weighted);
  g_sink = result.best_value;
  run.set_items(kBenchAnnealMoves);
  run.set_rate("moves", kBenchAnnealMoves);
  run.set_counter("best_value", result.best_value);
  run.set_counter("columns_per_move",
                  static_cast<double>(metrics.counter("core.delta.columns") -
                                      columns_before) /
                      kBenchAnnealMoves);
  run.set_counter(
      "restored_bytes_per_move",
      static_cast<double>(metrics.counter("core.delta.restored_bytes") -
                          restored_before) /
          kBenchAnnealMoves);
}

void register_micro_core() {
  for (const int n : {8, 16, 32}) {
    register_bench("micro_core", "directional_paths_" + std::to_string(n),
                   n == 8 ? "smoke" : "", [n](BenchRun& run) {
                     const topo::RowTopology row = sample_row(n, 4);
                     constexpr int kIters = 20;
                     for (int i = 0; i < kIters; ++i) {
                       route::DirectionalShortestPaths paths(
                           row, route::HopWeights{});
                       g_sink = paths.cost(0, n - 1);
                     }
                     run.set_items(kIters);
                   });
  }
  for (const int n : {8, 32}) {
    register_bench("micro_core", "matrix_decode_" + std::to_string(n),
                   n == 8 ? "smoke" : "", [n](BenchRun& run) {
                     Rng rng(1);
                     const auto m =
                         topo::ConnectionMatrix::random(n, 4, rng, 0.5);
                     constexpr int kIters = 50;
                     for (int i = 0; i < kIters; ++i) {
                       auto row = m.decode();
                       g_sink = static_cast<double>(row.size());
                     }
                     run.set_items(kIters);
                   });
  }
  register_bench("micro_core", "matrix_encode_8", "smoke", [](BenchRun& run) {
    const topo::RowTopology row = sample_row(8, 4);
    constexpr int kIters = 50;
    for (int i = 0; i < kIters; ++i) {
      auto m = topo::ConnectionMatrix::encode(row, 4);
      g_sink = static_cast<double>(m.decode().size());
    }
    run.set_items(kIters);
  });
  for (const int n : {8, 16, 32}) {
    register_bench("micro_core", "objective_evaluate_" + std::to_string(n),
                   n == 8 ? "smoke" : "", [n](BenchRun& run) {
                     const core::RowObjective obj(n, route::HopWeights{});
                     const topo::RowTopology row = sample_row(n, 4);
                     constexpr int kIters = 20;
                     for (int i = 0; i < kIters; ++i)
                       g_sink = obj.evaluate(row);
                     run.set_items(kIters);
                   });
  }
  // sa_moves_* is the full-evaluation reference path (delta_eval off);
  // sa_delta_moves_* runs the identical schedule with the incremental
  // evaluator. Their best_value counters must agree exactly (the delta
  // contract).
  for (const int n : {8, 16, 32}) {
    register_bench("micro_core", "sa_moves_" + std::to_string(n),
                   n == 8 ? "smoke" : "", [n](BenchRun& run) {
                     const core::SaResult result = bench_anneal(n, false);
                     g_sink = result.best_value;
                     run.set_items(kBenchAnnealMoves);
                     run.set_rate("moves", kBenchAnnealMoves);
                     run.set_counter("best_value", result.best_value);
                   });
  }
  // sa_delta_moves_* also report the delta layer's work per move;
  // sa_delta_moves_weighted_64 is the n = 64 anneal under random pair
  // weights.
  for (const int n : {8, 16, 32, 64}) {
    register_bench("micro_core", "sa_delta_moves_" + std::to_string(n),
                   n == 8 ? "smoke" : "",
                   [n](BenchRun& run) { delta_moves_body(n, false, run); });
  }
  register_bench("micro_core", "sa_delta_moves_weighted_64", "",
                 [](BenchRun& run) { delta_moves_body(64, true, run); });
  // The delta speedup the CI perf gate asserts: the two anneals above,
  // alternated in one loop so both sides see the same host state, each
  // side's time the fastest of its rounds (interference only ever slows a
  // round down). Their ratio is within-run, so a host speed swing between
  // two benchmarks timed seconds apart cannot move it.
  for (const int n : {16, 32}) {
    register_bench(
        "micro_core", "sa_delta_vs_full_" + std::to_string(n), "",
        [n](BenchRun& run) {
          constexpr int kRounds = 5;
          double full_s = 0.0;
          double delta_s = 0.0;
          for (int round = 0; round < kRounds; ++round)
            for (const bool delta_eval : {false, true}) {
              const Stopwatch timer;
              g_sink = bench_anneal(n, delta_eval).best_value;
              const double s = timer.seconds();
              double& best = delta_eval ? delta_s : full_s;
              if (round == 0 || s < best) best = s;
            }
          run.set_items(2L * kRounds * kBenchAnnealMoves);
          run.set_time_ns("full_move_ns", full_s * 1e9 / kBenchAnnealMoves);
          run.set_time_ns("delta_move_ns",
                          delta_s * 1e9 / kBenchAnnealMoves);
        });
  }
  // Head-to-head single-pair timing: the same 200-flip random walk scored
  // by the full evaluator and by the delta evaluator, interleaved into one
  // bench so both times come from the same process state. value_match is 1
  // only when every one of the 200 scores agreed bit-for-bit, and
  // columns_per_move is the delta walk's hop-table work (every move is
  // committed, so nothing is restored).
  register_bench("micro_core", "delta_vs_full_pair", "", [](BenchRun& run) {
    const int n = 16;
    const core::RowObjective obj(n, route::HopWeights{});
    Rng rng(5);
    const auto initial = topo::ConnectionMatrix::random(n, 4, rng, 0.5);
    constexpr int kMoves = 200;
    Rng walk_rng(9);
    std::vector<int> bits(kMoves);
    for (int& bit : bits)
      bit = static_cast<int>(walk_rng.uniform_below(
          static_cast<std::uint64_t>(initial.bit_count())));

    topo::ConnectionMatrix full_state = initial;
    std::vector<double> full_scores(kMoves);
    const auto full_start = std::chrono::steady_clock::now();
    for (int m = 0; m < kMoves; ++m) {
      full_state.flip_flat(bits[m]);
      full_scores[m] = obj.evaluate(full_state.decode());
    }
    const auto full_end = std::chrono::steady_clock::now();

    core::DeltaRowObjective delta(obj, initial);
    std::vector<double> delta_scores(kMoves);
    const auto delta_start = std::chrono::steady_clock::now();
    for (int m = 0; m < kMoves; ++m) {
      delta_scores[m] = delta.propose_flip(bits[m]);
      delta.commit();
    }
    const auto delta_end = std::chrono::steady_clock::now();

    bool match = true;
    for (int m = 0; m < kMoves; ++m)
      if (full_scores[m] != delta_scores[m]) match = false;
    g_sink = delta_scores.back();
    run.set_items(kMoves);
    run.set_time_ns("full_move_ns",
                    std::chrono::duration<double, std::nano>(full_end -
                                                             full_start)
                            .count() /
                        kMoves);
    run.set_time_ns("delta_move_ns",
                    std::chrono::duration<double, std::nano>(delta_end -
                                                             delta_start)
                            .count() /
                        kMoves);
    run.set_counter("value_match", match ? 1.0 : 0.0);
    run.set_counter("columns_per_move",
                    static_cast<double>(delta.work().columns) / kMoves);
  });
  for (const int n : {8, 16, 32}) {
    register_bench("micro_core", "dnc_initializer_" + std::to_string(n),
                   n == 8 ? "smoke" : "", [n](BenchRun& run) {
                     const core::RowObjective obj(n, route::HopWeights{});
                     const auto result = core::dnc_initial_solution(obj, 4);
                     g_sink = result.value;
                     run.set_counter("value", result.value);
                   });
  }
  for (const int n : {4, 6, 8}) {
    register_bench("micro_core", "branch_bound_" + std::to_string(n),
                   n == 4 ? "smoke" : "", [n](BenchRun& run) {
                     const core::RowObjective obj(n, route::HopWeights{});
                     core::BranchAndBound bb(obj, 2);
                     const auto result = bb.solve();
                     g_sink = result.value;
                     run.set_counter("value", result.value);
                   });
  }
  // Cost of the time-series instrumentation on the simulator cycle loop.
  // The plain variant is the recording-disabled path (one predictable
  // branch per cycle) that the CI overhead gate holds to <1% against the
  // baseline; the _series variant attaches a recorder so the two medians
  // side by side show what enabling telemetry actually buys and costs.
  // Fixed cycle counts (not XLP_BENCH_SCALE) keep the timed work identical
  // across environments.
  const auto sim_run = [](obs::SeriesRecorder* recorder, BenchRun& run) {
    sim::SimConfig config;
    config.warmup_cycles = 500;
    config.measure_cycles = 2000;
    config.drain_cycles = 8000;
    config.seed = 11;
    config.series = recorder;
    const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8,
                                     0.02);
    const auto stats =
        exp::simulate_design(topo::make_mesh(8), demand, config);
    run.set_items(config.warmup_cycles + config.measure_cycles);
    run.set_counter("packets_finished",
                    static_cast<double>(stats.packets_finished));
  };
  register_bench("micro_core", "sim_run_8x8", "smoke",
                 [sim_run](BenchRun& run) { sim_run(nullptr, run); });
  register_bench("micro_core", "sim_run_8x8_series", "smoke",
                 [sim_run](BenchRun& run) {
                   obs::SeriesRecorder recorder(512);
                   sim_run(&recorder, run);
                   g_sink = static_cast<double>(recorder.names().size());
                 });
  // The evaluate request's whole execution (routing tables, the demand's
  // line blocks, the latency model's fold) on a 16- and a 256-router C = 4
  // design: one svc::execute_request per op, once under each traffic model.
  // Each model's `total` is a counter, so a change that moves the model's
  // answer shows up in the deterministic pass too.
  for (const int n : {16, 256}) {
    register_bench("micro_core", "evaluate_" + std::to_string(n), "",
                   [n](BenchRun& run) {
                     svc::Request request;
                     request.kind = svc::RequestKind::kEvaluate;
                     request.n = n;
                     request.link_limit = 4;
                     request.links = topo::format_links(sample_row(n, 4));
                     constexpr const char* kWorkloads[] = {
                         "uniform_random", "transpose", "canneal", "hotspot"};
                     for (const char* workload : kWorkloads) {
                       request.workload = workload;
                       const obs::Json payload =
                           svc::execute_request(request, nullptr);
                       run.set_counter(std::string("total_") + workload,
                                       payload.find("total")->as_number());
                     }
                     run.set_items(std::size(kWorkloads));
                   });
  }
  // Service-path kernels: the request content hash (the canonical
  // document's FNV-1a) and an in-memory cache hit — the two operations
  // every request pays before any real work happens. The hash runs over
  // one solve, one evaluate and one simulate request, the kinds the
  // warm_replay workload replays.
  register_bench("micro_core", "request_hash", "smoke", [](BenchRun& run) {
    svc::Request solve;
    solve.kind = svc::RequestKind::kSolve;
    solve.n = 8;
    solve.link_limit = 4;
    svc::Request evaluate = solve;
    evaluate.kind = svc::RequestKind::kEvaluate;
    evaluate.links = "0-2,2-5";
    evaluate.workload = "canneal";
    evaluate.contention_per_hop = 0.5;
    svc::Request simulate = evaluate;
    simulate.kind = svc::RequestKind::kSimulate;
    simulate.load = 0.05;
    simulate.cycles = 2000;
    constexpr int kIters = 200;
    for (int i = 0; i < kIters; ++i) {
      for (svc::Request* request : {&solve, &evaluate, &simulate}) {
        request->seed = static_cast<std::uint64_t>(i);
        g_sink = static_cast<double>(request->id().size());
      }
    }
    run.set_items(3 * kIters);
  });
  register_bench("micro_core", "cache_lookup", "smoke", [](BenchRun& run) {
    // Primed once per process: the fsync'd put is disk latency, not a
    // lookup, so only the first call pays it, spread over enough gets to
    // stay a small share even at --repeats 1 --warmup 0.
    struct PrimedCache {
      std::string dir =
          (std::filesystem::temp_directory_path() / "xlp_bench_cache_lookup")
              .string();
      obs::MetricsRegistry metrics;
      std::optional<svc::ResultCache> cache;
      std::string id = svc::Request{}.id();
      PrimedCache() {
        std::filesystem::remove_all(dir);
        cache.emplace(dir, 64, &metrics);
        cache->put(id, "{\"kind\":\"solve\",\"value\":7.5}");
      }
      ~PrimedCache() {
        cache.reset();
        std::filesystem::remove_all(dir);
      }
    };
    static PrimedCache primed;
    constexpr int kIters = 100000;
    for (int i = 0; i < kIters; ++i) {
      const auto hit = primed.cache->get(primed.id);
      g_sink = hit ? static_cast<double>(hit->size()) : -1.0;
    }
    run.set_items(kIters);
  });
}

// Serves one batch on a fresh server + cache rooted at `dir` and returns
// the served-requests/sec the caller should report (requests / seconds).
// The svc suite's batch of distinct requests: one 300-move dcsa solve
// (seed 1) per feasible link limit of an 8-router row.
std::vector<svc::Request> distinct_solves8() {
  std::vector<svc::Request> batch;
  for (const int limit : topo::valid_link_limits(8)) {
    svc::Request request;
    request.link_limit = limit;
    request.moves = 300;
    batch.push_back(request);
  }
  return batch;
}

void register_svc() {
  namespace fs = std::filesystem;
  const auto fresh_server = [](const std::string& dir,
                               obs::MetricsRegistry& metrics) {
    fs::remove_all(dir);
    svc::ServerOptions options;
    options.cache_dir = dir;
    options.metrics = &metrics;
    return options;
  };
  // 0% duplicates: every request of the batch is unique, so the
  // server executes all of them — the no-benefit floor of the cache.
  register_bench("svc", "serve_sweep8_unique", "smoke",
                 [fresh_server](BenchRun& run) {
                   const auto batch = distinct_solves8();
                   obs::MetricsRegistry metrics;
                   svc::Server server(fresh_server(
                       (fs::temp_directory_path() / "xlp_bench_svc_u")
                           .string(),
                       metrics));
                   const auto replies = server.serve_batch(batch);
                   g_sink = static_cast<double>(replies.size());
                   run.set_items(static_cast<long>(batch.size()));
                   run.set_rate("requests",
                                static_cast<double>(batch.size()));
                   run.set_counter("executed", static_cast<double>(
                                       metrics.counter("svc.executed")));
                 });
  // 90% duplicates: the same batch submitted ten times over — the
  // shape of a parameter-sweep campaign. Only the first tenth executes.
  register_bench("svc", "serve_sweep8_dup90", "smoke",
                 [fresh_server](BenchRun& run) {
                   const auto unique = distinct_solves8();
                   std::vector<svc::Request> batch;
                   for (int copy = 0; copy < 10; ++copy)
                     batch.insert(batch.end(), unique.begin(), unique.end());
                   obs::MetricsRegistry metrics;
                   svc::Server server(fresh_server(
                       (fs::temp_directory_path() / "xlp_bench_svc_d")
                           .string(),
                       metrics));
                   const auto replies = server.serve_batch(batch);
                   g_sink = static_cast<double>(replies.size());
                   run.set_items(static_cast<long>(batch.size()));
                   run.set_rate("requests",
                                static_cast<double>(batch.size()));
                   run.set_counter("executed", static_cast<double>(
                                       metrics.counter("svc.executed")));
                 });
  // The acceptance scenario (docs/service.md): a batch of distinct
  // solves submitted twice end to end. The second submission is answered
  // entirely from the cache; the recorded speedup is cold/warm wall time.
  register_bench("svc", "sweep8_resubmit_speedup", "smoke",
                 [fresh_server](BenchRun& run) {
                   const auto batch = distinct_solves8();
                   obs::MetricsRegistry metrics;
                   svc::Server server(fresh_server(
                       (fs::temp_directory_path() / "xlp_bench_svc_r")
                           .string(),
                       metrics));
                   Stopwatch cold_timer;
                   g_sink = static_cast<double>(
                       server.serve_batch(batch).size());
                   const double cold = cold_timer.seconds();
                   Stopwatch warm_timer;
                   g_sink = static_cast<double>(
                       server.serve_batch(batch).size());
                   const double warm = warm_timer.seconds();
                   run.set_items(2L * static_cast<long>(batch.size()));
                   run.set_rate("requests",
                                2.0 * static_cast<double>(batch.size()));
                   run.set_counter("executed", static_cast<double>(
                                       metrics.counter("svc.executed")));
                   run.set_payload(obs::Json::object()
                                       .set("cold_seconds", cold)
                                       .set("warm_seconds", warm)
                                       .set("speedup",
                                            warm > 0.0 ? cold / warm : 0.0));
                 });
  // Observability overhead, measured as a pair inside one body: two
  // servers over the same warm cache contents — one with histograms /
  // per-kind counters on, one with --no-observe — alternating per request
  // document so clock-frequency drift and disk-cache state cancel out.
  // The hot path is serve_text one document at a time: the exact per-frame
  // work of the socket and queue transports (parse, resolve, serialize)
  // on a warm cache, where the relative cost of observe_request() is at
  // its worst. observed_p99_ns / unobserved_p99_ns land in `xlp diff`'s
  // regression gate as lower-is-better tails; the p50 gap is the
  // per-request recording overhead docs/observability.md quotes (<1%).
  register_bench("svc", "observe_overhead_pair", "smoke",
                 [fresh_server](BenchRun& run) {
                   const auto batch = distinct_solves8();
                   std::vector<std::string> documents;
                   for (const svc::Request& request : batch)
                     documents.push_back(request.to_json().dump());
                   obs::MetricsRegistry metrics_on, metrics_off;
                   svc::ServerOptions on_options = fresh_server(
                       (fs::temp_directory_path() / "xlp_bench_svc_on")
                           .string(),
                       metrics_on);
                   svc::ServerOptions off_options = fresh_server(
                       (fs::temp_directory_path() / "xlp_bench_svc_off")
                           .string(),
                       metrics_off);
                   off_options.observe = false;
                   svc::Server observed(on_options);
                   svc::Server unobserved(off_options);
                   g_sink = static_cast<double>(
                       observed.serve_batch(batch).size());  // prime
                   g_sink = static_cast<double>(
                       unobserved.serve_batch(batch).size());
                   constexpr int kRounds = 100;
                   obs::Histogram on_ns(14), off_ns(14);
                   const auto timed_serve = [](svc::Server& server,
                                               const std::string& document,
                                               obs::Histogram& hist) {
                     Stopwatch request_timer;
                     g_sink = static_cast<double>(
                         server.serve_text(document).size());
                     hist.record(
                         static_cast<long>(request_timer.seconds() * 1e9));
                   };
                   for (int round = 0; round < kRounds; ++round) {
                     for (const std::string& document : documents) {
                       timed_serve(observed, document, on_ns);
                       timed_serve(unobserved, document, off_ns);
                     }
                   }
                   run.set_items(2L * kRounds *
                                 static_cast<long>(batch.size()));
                   run.set_rate("requests",
                                2.0 * kRounds *
                                    static_cast<double>(batch.size()));
                   run.set_time_ns("observed_p99_ns",
                                   static_cast<double>(
                                       on_ns.value_at_quantile(0.99)));
                   run.set_time_ns("unobserved_p99_ns",
                                   static_cast<double>(
                                       off_ns.value_at_quantile(0.99)));
                   run.set_time_ns("observed_p50_ns",
                                   static_cast<double>(
                                       on_ns.value_at_quantile(0.50)));
                   run.set_time_ns("unobserved_p50_ns",
                                   static_cast<double>(
                                       off_ns.value_at_quantile(0.50)));
                   run.set_counter(
                       "executed",
                       static_cast<double>(metrics_on.counter("svc.executed") +
                                           metrics_off.counter(
                                               "svc.executed")));
                 });
  // Checksum-verification overhead on the cache-hit hot path, measured as
  // a pair inside one body: two caches holding the same realistic payload
  // (one solve result), one re-verifying the FNV-1a checksum on every
  // get() (the default — what turns bit rot into quarantine-and-recompute
  // instead of a wrong byte served) and one trusting memory. Alternating
  // lookups cancel clock drift; the p50 gap is the cost of one FNV pass
  // over a small JSON document and must stay in the noise (the acceptance
  // bar for leaving verification on in production).
  register_bench("svc", "cache_hit_verify_pair", "smoke",
                 [](BenchRun& run) {
                   svc::Request request;
                   request.kind = svc::RequestKind::kSolve;
                   request.n = 8;
                   request.link_limit = 4;
                   request.moves = 300;
                   const std::string id = request.id();
                   obs::MetricsRegistry metrics;
                   svc::Server seed_server([&] {
                     svc::ServerOptions options;
                     options.cache_dir =
                         (fs::temp_directory_path() / "xlp_bench_svc_seed")
                             .string();
                     fs::remove_all(options.cache_dir);
                     options.metrics = &metrics;
                     return options;
                   }());
                   const std::string payload =
                       seed_server.resolve(request).payload_text;
                   const auto fresh_cache = [&](const char* name,
                                                bool verify) {
                     const std::string dir =
                         (fs::temp_directory_path() / name).string();
                     fs::remove_all(dir);
                     auto cache = std::make_unique<svc::ResultCache>(
                         dir, 64, &metrics, verify);
                     cache->put(id, payload);
                     return cache;
                   };
                   const auto verified =
                       fresh_cache("xlp_bench_svc_vfy", true);
                   const auto unverified =
                       fresh_cache("xlp_bench_svc_raw", false);
                   constexpr int kIters = 2000;
                   obs::Histogram verified_ns(14), unverified_ns(14);
                   const auto timed_get = [&](svc::ResultCache& cache,
                                              obs::Histogram& hist) {
                     Stopwatch get_timer;
                     const auto hit = cache.get(id);
                     hist.record(
                         static_cast<long>(get_timer.seconds() * 1e9));
                     g_sink = hit ? static_cast<double>(hit->size()) : -1.0;
                   };
                   for (int i = 0; i < kIters; ++i) {
                     timed_get(*verified, verified_ns);
                     timed_get(*unverified, unverified_ns);
                   }
                   run.set_items(2L * kIters);
                   run.set_rate("lookups", 2.0 * kIters);
                   run.set_time_ns("verified_p50_ns",
                                   static_cast<double>(
                                       verified_ns.value_at_quantile(0.50)));
                   run.set_time_ns(
                       "unverified_p50_ns",
                       static_cast<double>(
                           unverified_ns.value_at_quantile(0.50)));
                   run.set_time_ns("verified_p99_ns",
                                   static_cast<double>(
                                       verified_ns.value_at_quantile(0.99)));
                   run.set_counter("payload_bytes",
                                   static_cast<double>(payload.size()));
                 });
  // One-document warm hits through Server::serve_text: the per-frame work
  // of the socket and queue transports when the answer is cached (parse,
  // id hash, verified get, serialize, dispatch). The document is primed
  // once, so every timed call is a hit on the calling thread; hit_p50_ns
  // is the request path's floor, hit_p99_ns its gated tail.
  register_bench("svc", "serve_text_hit", "smoke",
                 [fresh_server](BenchRun& run) {
                   svc::Request request;
                   request.kind = svc::RequestKind::kSolve;
                   request.n = 8;
                   request.link_limit = 4;
                   request.moves = 300;
                   const std::string document = request.to_json().dump();
                   obs::MetricsRegistry metrics;
                   svc::Server server(fresh_server(
                       (fs::temp_directory_path() / "xlp_bench_svc_hit")
                           .string(),
                       metrics));
                   g_sink = static_cast<double>(
                       server.serve_text(document).size());  // prime
                   constexpr int kHits = 2000;
                   obs::Histogram hit_ns(14);
                   for (int i = 0; i < kHits; ++i) {
                     Stopwatch hit_timer;
                     g_sink = static_cast<double>(
                         server.serve_text(document).size());
                     hit_ns.record(
                         static_cast<long>(hit_timer.seconds() * 1e9));
                   }
                   run.set_items(kHits);
                   run.set_rate("requests", kHits);
                   run.set_time_ns("hit_p50_ns",
                                   static_cast<double>(
                                       hit_ns.value_at_quantile(0.50)));
                   run.set_time_ns("hit_p99_ns",
                                   static_cast<double>(
                                       hit_ns.value_at_quantile(0.99)));
                   run.set_counter("executed", static_cast<double>(
                                       metrics.counter("svc.executed")));
                 });
}

void register_sim() {
  // Simulator throughput on the two fixed 8x8 designs and on larger plain
  // meshes (the hundreds-of-cores scale of the Uber NoC study). Short
  // windows keep the smoke run cheap; both rates and the deterministic
  // packet counters land in BENCH_sim.json. The 16x16 and 32x32 points are
  // tagged `large` rather than `smoke`, so smoke-filtered runs (and
  // cli_bench_smoke) skip them.
  const auto simulate = [](const topo::ExpressMesh& design, int n,
                           BenchRun& run) {
    sim::SimConfig config = exp::default_sim_config(11);
    config.warmup_cycles = 500;
    config.measure_cycles = 2000;
    config.drain_cycles = 8000;
    const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, n,
                                     0.02);
    const auto stats = exp::simulate_design(design, demand, config);
    const long cycles = config.warmup_cycles + config.measure_cycles;
    run.set_rate("simulated_cycles", static_cast<double>(cycles));
    run.set_rate("packets", static_cast<double>(stats.packets_finished));
    run.set_counter("packets_finished",
                    static_cast<double>(stats.packets_finished));
    run.set_counter("avg_latency", stats.avg_latency);
  };
  register_bench("sim", "mesh_8x8_ur", "smoke", [simulate](BenchRun& run) {
    simulate(topo::make_mesh(8), 8, run);
  });
  register_bench("sim", "hfb_8x8_ur", "smoke", [simulate](BenchRun& run) {
    simulate(exp::fixed_designs(8)[1].design, 8, run);
  });
  for (const int n : {16, 32}) {
    const std::string name =
        "mesh_" + std::to_string(n) + "x" + std::to_string(n) + "_ur";
    register_bench("sim", name, "large", [simulate, n](BenchRun& run) {
      simulate(topo::make_mesh(n), n, run);
    });
  }
}

// One scalability point: full C sweep at size n, reporting the optimizer
// cost (evaluations) and the latency reduction against the plain mesh.
void scalability_point(int n, long moves, BenchRun& run) {
  core::SweepOptions options;
  options.sa = exp::paper_sa_params().with_moves(moves);
  options.latency = latency::LatencyParams::zero_load();

  Rng rng(static_cast<std::uint64_t>(77 + n));
  const auto points = core::sweep_link_limits(n, n, options, rng);
  const auto& best = points[core::best_point(points)];

  long evals = 0;
  for (const auto& p : points) evals += p.placement.evaluations;
  const double mesh_total =
      core::evaluate_design(topo::make_mesh(n), options.latency, {}).total();

  run.set_rate("evaluations", static_cast<double>(evals));
  run.set_counter("evals", static_cast<double>(evals));
  run.set_counter("mesh_total", mesh_total);
  run.set_counter("best_total", best.breakdown.total());
  run.set_counter("best_c", best.link_limit);
  run.set_counter("reduction_pct",
                  -percent_change(best.breakdown.total(), mesh_total));
}

// Thread-scaling curve of the parallel portfolio: the same 8-chain solve
// at 1/2/4/8 workers. Recorded, not gated — each width's wall time lands
// in BENCH_scalability.json as wall_<N>t_ns (speedup = wall_1t / wall_Nt),
// a timing that --deterministic zeroes, so regressions in the parallel
// layer are visible in the history. Also asserts (as a counter) the
// determinism contract: every thread count must produce the identical best
// value; the payload keeps only such deterministic facts.
void portfolio_speedup_point(int n, int chains, long moves, BenchRun& run) {
  obs::Json curve = obs::Json::array();
  double first_value = 0.0;
  bool deterministic = true;
  for (const int threads : {1, 2, 4, 8}) {
    core::PortfolioOptions options;
    options.chains = chains;
    options.threads = threads;
    options.sa = exp::paper_sa_params().with_moves(moves);
    Stopwatch timer;
    const auto result = core::solve_portfolio(n, route::HopWeights{},
                                              std::nullopt, 4, options, 42);
    run.set_time_ns("wall_" + std::to_string(threads) + "t_ns",
                    timer.seconds() * 1e9);
    if (threads == 1) first_value = result.best.value;
    deterministic = deterministic && result.best.value == first_value;
    curve.push(obs::Json::object()
                   .set("threads", threads)
                   .set("best_value", result.best.value));
  }
  g_sink = first_value;
  run.set_counter("deterministic", deterministic ? 1.0 : 0.0);
  run.set_items(4L * chains * moves);
  run.set_payload(obs::Json::object()
                      .set("n", n)
                      .set("chains", chains)
                      .set("moves", moves)
                      .set("threads_curve", std::move(curve)));
}

// Same curve for the fault campaign's simulation cells.
void campaign_speedup_point(int n, int trials, BenchRun& run) {
  std::string first_json;
  bool deterministic = true;
  for (const int threads : {1, 2, 4, 8}) {
    exp::FaultCampaignConfig config;
    config.scale = exp::bench_scale();
    config.n = n;
    config.trials = trials;
    config.fault_cycle = 1000;
    config.threads = threads;
    Stopwatch timer;
    const std::string json = exp::run_fault_campaign(config).to_json().dump();
    run.set_time_ns("wall_" + std::to_string(threads) + "t_ns",
                    timer.seconds() * 1e9);
    if (threads == 1) first_json = json;
    deterministic = deterministic && json == first_json;
  }
  run.set_counter("deterministic", deterministic ? 1.0 : 0.0);
  run.set_payload(obs::Json::object().set("n", n).set("trials", trials));
}

void register_scalability() {
  for (const int n : {4, 8, 16, 24, 32}) {
    const long moves = std::max<long>(
        200, static_cast<long>(10000 * exp::bench_scale()));
    register_bench("scalability",
                   "sweep_" + std::to_string(n) + "x" + std::to_string(n),
                   n == 4 ? "smoke" : "full", [n, moves](BenchRun& run) {
                     scalability_point(n, n == 4 ? 200 : moves, run);
                   });
  }
  register_bench("scalability", "portfolio_speedup_8x8", "smoke",
                 [](BenchRun& run) {
                   const long moves = std::max<long>(
                       500, static_cast<long>(10000 * exp::bench_scale()));
                   portfolio_speedup_point(8, 8, moves, run);
                 });
  register_bench("scalability", "campaign_speedup_8x8", "full",
                 [](BenchRun& run) { campaign_speedup_point(8, 8, run); });
}

void fault_point(const exp::FaultCampaignConfig& config, BenchRun& run) {
  const exp::FaultCampaignResult result = exp::run_fault_campaign(config);
  for (const auto& d : result.designs) {
    const double slowdown =
        d.degraded_mean > 0.0 ? d.degraded_mean / d.baseline_latency : 0.0;
    run.set_counter(d.name + "_slowdown", slowdown);
    run.set_counter(d.name + "_lost", static_cast<double>(d.lost_total));
  }
  run.set_payload(result.to_json());
}

void register_fault_campaign() {
  register_bench("fault_campaign", "smoke_8x8", "smoke", [](BenchRun& run) {
    exp::FaultCampaignConfig config;
    config.scale = exp::bench_scale();
    config.n = 8;
    config.link_limit = 4;
    config.kill_links = 1;
    config.trials = 2;
    config.fault_cycle = 1000;
    fault_point(config, run);
  });
  register_bench("fault_campaign", "8x8_c4", "full", [](BenchRun& run) {
    exp::FaultCampaignConfig config;
    config.scale = exp::bench_scale();
    config.n = 8;
    config.link_limit = 4;
    config.kill_links = 1;
    config.trials = 10;
    config.fault_cycle = 2000;
    fault_point(config, run);
  });
}

}  // namespace

void register_all_suites() {
  static bool done = false;
  if (done) return;
  done = true;
  register_micro_core();
  register_sim();
  register_svc();
  register_scalability();
  register_fault_campaign();
  register_paper_suites();
}

}  // namespace xlp::bench
