#include "exp/fault_campaign.hpp"

#include <algorithm>

#include "core/drivers.hpp"
#include "exp/scenarios.hpp"
#include "fault/model.hpp"
#include "fault/objective.hpp"
#include "fault/reroute.hpp"
#include "topo/builders.hpp"
#include "traffic/demand.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace xlp::exp {

namespace {

const char* policy_name(sim::FaultPolicy policy) {
  return policy == sim::FaultPolicy::kDrainThenSwap ? "drain_then_swap"
                                                    : "drop_retransmit";
}

}  // namespace

FaultCampaignResult run_fault_campaign(const FaultCampaignConfig& config) {
  XLP_REQUIRE(config.n >= 2, "need at least a 2x2 network");
  XLP_REQUIRE(config.trials >= 1, "need at least one trial");
  XLP_REQUIRE(config.kill_links >= 1, "need at least one link to kill");
  XLP_REQUIRE(config.fault_cycle >= 0, "fault cycle must be non-negative");
  XLP_REQUIRE(config.load > 0.0, "need a positive load");
  XLP_REQUIRE(config.max_retries >= 0, "retry budget must be non-negative");
  XLP_REQUIRE(config.scale > 0.0, "budget scale must be positive");
  XLP_REQUIRE(
      config.reliability_weight >= 0.0 && config.reliability_weight <= 1.0,
      "reliability weight must be in [0, 1]");

  const route::HopWeights weights{};
  const core::SaParams sa = paper_sa_params().with_moves(
      std::max<long>(100, static_cast<long>(10000 * config.scale)));

  // The four competitors. The optimized placements are solved here so the
  // campaign is self-contained and deterministic.
  std::vector<NamedDesign> designs = fixed_designs(config.n);
  {
    const core::RowObjective objective(config.n, weights);
    Rng rng(config.seed ^ 0x5ac1a11eULL);
    const core::PlacementResult solved =
        core::solve_dcsa(objective, config.link_limit, sa, rng);
    designs.push_back(
        {"DC_SA", topo::make_design(solved.placement, config.link_limit)});
  }
  {
    core::RowObjective objective = fault::make_reliability_objective(
        config.n, weights, config.reliability_weight);
    Rng rng(config.seed ^ 0x5ac1a11eULL);  // same stream: paired comparison
    const core::PlacementResult solved =
        core::solve_dcsa(objective, config.link_limit, sa, rng);
    designs.push_back(
        {"DC_SA_rel", topo::make_design(solved.placement, config.link_limit)});
  }

  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, config.n,
                                   config.load);

  // Every simulation cell — each design's fault-free baseline and each of
  // its trials — is independent: trials are explicitly seeded from the
  // config (never from a shared advancing stream), so the flattened cell
  // grid can run on the pool in any order and the merged result is
  // byte-identical to the sequential one. Cell c maps to design c/(T+1);
  // sub-index 0 is the baseline, 1..T are the trials.
  const long per_design = static_cast<long>(config.trials) + 1;
  const long cells = static_cast<long>(designs.size()) * per_design;
  std::vector<sim::SimStats> baselines(designs.size());
  std::vector<std::vector<FaultTrialResult>> trials(
      designs.size(),
      std::vector<FaultTrialResult>(static_cast<std::size_t>(config.trials)));

  // A shared trace sink is thread-safe but would interleave events in
  // scheduling order; keep the event stream deterministic instead.
  util::ThreadPool pool(config.trace != nullptr ? 1 : config.threads, cells);
  pool.parallel_for(cells, [&](long c) {
    const std::size_t di = static_cast<std::size_t>(c / per_design);
    const long sub = c % per_design;
    const NamedDesign& named = designs[di];

    sim::SimConfig sim_config = default_sim_config(
        config.seed + static_cast<std::uint64_t>(di), config.scale);
    sim_config.trace = config.trace;

    if (sub == 0) {
      baselines[di] = simulate_design(named.design, demand, sim_config);
      return;
    }
    const long t = sub - 1;
    // Explicit per-trial seeding keeps the sampled fault independent of
    // everything the solvers or simulators drew.
    Rng trial_rng(config.seed * 1000003ULL +
                  static_cast<std::uint64_t>(di) * 1009ULL +
                  static_cast<std::uint64_t>(t));
    const fault::FaultSet faults =
        fault::sample_k_links(named.design, config.kill_links, trial_rng);

    FaultTrialResult trial;
    trial.faults = faults.to_string();
    trial.unreachable_pairs = static_cast<long>(
        fault::reroute(named.design, faults, weights).unreachable_xy.size());

    sim::SimConfig degraded_config = sim_config;
    degraded_config.faults.policy = config.policy;
    degraded_config.faults.max_retries = config.max_retries;
    degraded_config.faults.events.push_back(
        {config.fault_cycle, faults, config.recover_cycle});
    const sim::SimStats stats =
        simulate_design(named.design, demand, degraded_config);

    trial.drained = stats.drained;
    trial.reroutes = stats.reroutes;
    trial.dropped = stats.packets_dropped;
    trial.retransmitted = stats.packets_retransmitted;
    trial.lost = stats.packets_lost;
    trial.unroutable = stats.packets_unroutable;
    if (stats.packets_finished > 0) trial.avg_latency = stats.avg_latency;
    trials[di][static_cast<std::size_t>(t)] = std::move(trial);
  });

  // Merge in design order after the pool joins: aggregates, the JSON dump,
  // and the undrained-baseline warnings all come out in a fixed order.
  FaultCampaignResult result;
  result.config = config;
  for (std::size_t di = 0; di < designs.size(); ++di) {
    warn_if_undrained(baselines[di], designs[di].name + " baseline");
    FaultDesignResult out;
    out.name = designs[di].name;
    out.baseline_latency = baselines[di].avg_latency;

    double degraded_sum = 0.0;
    int degraded_count = 0;
    for (FaultTrialResult& trial : trials[di]) {
      if (trial.avg_latency >= 0.0) {
        degraded_sum += trial.avg_latency;
        ++degraded_count;
        out.degraded_worst = std::max(out.degraded_worst, trial.avg_latency);
      }
      out.lost_total += trial.lost;
      out.unroutable_total += trial.unroutable;
      out.trials.push_back(std::move(trial));
    }
    if (degraded_count > 0) out.degraded_mean = degraded_sum / degraded_count;
    result.designs.push_back(std::move(out));
  }
  return result;
}

obs::Json FaultCampaignResult::to_json() const {
  obs::Json designs_json = obs::Json::array();
  for (const FaultDesignResult& d : designs) {
    obs::Json trials_json = obs::Json::array();
    for (const FaultTrialResult& t : d.trials) {
      trials_json.push(obs::Json::object()
                           .set("faults", t.faults)
                           .set("avg_latency", t.avg_latency)
                           .set("drained", t.drained)
                           .set("reroutes", t.reroutes)
                           .set("dropped", t.dropped)
                           .set("retransmitted", t.retransmitted)
                           .set("lost", t.lost)
                           .set("unroutable", t.unroutable)
                           .set("unreachable_pairs", t.unreachable_pairs));
    }
    designs_json.push(obs::Json::object()
                          .set("name", d.name)
                          .set("baseline_latency", d.baseline_latency)
                          .set("degraded_mean", d.degraded_mean)
                          .set("degraded_worst", d.degraded_worst)
                          .set("lost_total", d.lost_total)
                          .set("unroutable_total", d.unroutable_total)
                          .set("trials", std::move(trials_json)));
  }
  // No wall-clock fields anywhere: the dump is byte-identical across runs
  // with the same config (the determinism test relies on this).
  return obs::Json::object()
      .set("config",
           obs::Json::object()
               .set("n", config.n)
               .set("link_limit", config.link_limit)
               .set("kill_links", config.kill_links)
               .set("trials", config.trials)
               .set("fault_cycle", config.fault_cycle)
               .set("recover_cycle", config.recover_cycle)
               .set("load", config.load)
               .set("policy", policy_name(config.policy))
               .set("max_retries", config.max_retries)
               .set("reliability_weight", config.reliability_weight)
               .set("seed", static_cast<long>(config.seed)))
      .set("designs", std::move(designs_json));
}

}  // namespace xlp::exp
