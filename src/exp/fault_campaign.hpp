#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "sim/config.hpp"

namespace xlp::obs {
class TraceSink;
}

namespace xlp::exp {

/// Monte Carlo resilience campaign: for each competing design (Mesh, HFB,
/// D&C_SA, and a reliability-aware D&C_SA), sample random link failures,
/// inject them mid-run, and measure the degraded latency after rerouting.
struct FaultCampaignConfig {
  int n = 8;              // routers per side
  int link_limit = 4;     // C for the optimized designs
  int kill_links = 1;     // links killed per trial (express when available)
  int trials = 10;        // fault samples per design
  long fault_cycle = 2000;    // cycle the fault strikes (0 = before traffic)
  long recover_cycle = -1;    // optional recovery (-1 = permanent)
  double load = 0.02;         // packets/node/cycle, uniform random traffic
  sim::FaultPolicy policy = sim::FaultPolicy::kDropRetransmit;
  int max_retries = 3;  // retransmit budget under kDropRetransmit
  /// Blend weight of the degraded-latency term in the reliability-aware
  /// D&C_SA objective.
  double reliability_weight = 0.3;
  std::uint64_t seed = 1;
  /// Budget scale: the D&C_SA solves make 10000 * scale moves (at least
  /// 100) and every simulation runs default_sim_config's cycles at this
  /// scale. 1 is the paper's budget; the bench suites pass bench_scale().
  double scale = 1.0;
  /// Pool workers for the simulation cells (per-design baselines and
  /// trials are all independent: every trial is explicitly seeded from
  /// `seed`). 0 = util::default_thread_count(); capped by the cell count.
  /// The campaign result — including its JSON dump — is byte-identical
  /// for any thread count. Forced to 1 when `trace` is set so the trace
  /// event order stays deterministic too.
  int threads = 0;
  /// Forwarded into every simulation (fault.injected / fault.rerouted
  /// events land here); null for silent runs.
  obs::TraceSink* trace = nullptr;
};

/// One sampled-fault trial on one design.
struct FaultTrialResult {
  std::string faults;          // sampled fault set, human-readable
  double avg_latency = -1.0;   // degraded average latency; -1 if nothing
                               // finished
  bool drained = false;
  long reroutes = 0;
  long dropped = 0;
  long retransmitted = 0;
  long lost = 0;
  long unroutable = 0;
  long unreachable_pairs = 0;  // analytic: severed (src,dst) pairs under XY
};

struct FaultDesignResult {
  std::string name;
  double baseline_latency = 0.0;  // fault-free run, same traffic and seed
  double degraded_mean = -1.0;    // mean over trials that finished packets
  double degraded_worst = -1.0;
  long lost_total = 0;
  long unroutable_total = 0;
  std::vector<FaultTrialResult> trials;
};

struct FaultCampaignResult {
  FaultCampaignConfig config;
  std::vector<FaultDesignResult> designs;

  /// Deterministic JSON (no wall-clock fields): byte-identical across runs
  /// with the same config.
  [[nodiscard]] obs::Json to_json() const;
};

/// Runs the campaign. Deterministic given the config: all randomness is
/// forked from `config.seed`. Shared by `xlp faults`, bench/fault_campaign
/// and the determinism test.
[[nodiscard]] FaultCampaignResult run_fault_campaign(
    const FaultCampaignConfig& config);

}  // namespace xlp::exp
