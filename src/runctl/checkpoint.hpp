#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "topo/connection_matrix.hpp"

namespace xlp::runctl {

/// The cooling-schedule parameters a checkpoint must carry so a resumed
/// run replays the identical temperature trajectory. Mirrors the schedule
/// subset of core::SaParams (runctl sits below core, so it cannot include
/// it).
struct SaSchedule {
  double initial_temperature = 10.0;
  long total_moves = 10000;
  double cool_scale = 2.0;
  long moves_per_cool = 1000;
};

/// Complete annealer state at a move boundary. Restoring every field —
/// including the raw RNG words — makes a resumed run bit-identical to one
/// that was never interrupted (asserted by the runctl tests).
struct SaCheckpoint {
  SaSchedule schedule;
  std::string method;  // driver label, e.g. "D&C_SA"
  int n = 2;
  int link_limit = 1;

  long next_move = 0;  // first move the resumed run will execute
  long cooling_step = 0;
  double temperature = 0.0;
  long window_start_move = 0;
  long window_start_accepted = 0;
  long moves = 0;
  long accepted = 0;
  long improved = 0;

  std::array<std::uint64_t, 4> rng_state{};
  topo::ConnectionMatrix current{2, 1};
  double current_value = 0.0;
  topo::ConnectionMatrix best{2, 1};
  double best_value = 0.0;

  bool complete = false;  // true once the schedule ran to its end

  [[nodiscard]] obs::Json to_json() const;
  /// Throws xlp::Error (kParse / kSchema) on any malformed document.
  [[nodiscard]] static SaCheckpoint from_json(const obs::Json& json);
};

/// State of a multi-chain portfolio run. Chains that were cancelled
/// mid-anneal carry their SaCheckpoint; chains that never reached the
/// annealer (nullopt) are restarted from scratch on resume — both paths
/// are deterministic because each chain's RNG is forked from the seed.
struct PortfolioCheckpoint {
  int n = 2;
  int link_limit = 1;
  int chains = 0;
  std::uint64_t seed = 0;
  std::string solver;  // "onlysa", "dnc" or "dcsa"
  SaSchedule schedule;
  std::vector<std::optional<SaCheckpoint>> chain_states;

  [[nodiscard]] obs::Json to_json() const;
  [[nodiscard]] static PortfolioCheckpoint from_json(const obs::Json& json);
};

/// A parsed checkpoint file: exactly one of `sa` / `portfolio` is engaged,
/// matching `kind`.
struct CheckpointFile {
  std::string kind;  // "sa" | "portfolio"
  std::optional<SaCheckpoint> sa;
  std::optional<PortfolioCheckpoint> portfolio;
};

/// Atomically writes a versioned checkpoint file ("xlp-ckpt/1" envelope).
/// Throws xlp::Error(kIo) when the file cannot be written.
void save_sa_checkpoint(const std::string& path, const SaCheckpoint& ckpt);
void save_portfolio_checkpoint(const std::string& path,
                               const PortfolioCheckpoint& ckpt);

/// Single-chain sink saving every snapshot to `path`; a failed write warns
/// on stderr instead of killing the search. Empty when `path` is.
[[nodiscard]] std::function<void(const SaCheckpoint&)> sa_checkpoint_file_sink(
    std::string path);

/// Parses and validates checkpoint text. Throws xlp::Error with kParse
/// (not JSON / bad field, a fractional or out-of-range integer included),
/// kSchema (JSON but not a checkpoint) or kVersion (checkpoint from a
/// newer format).
[[nodiscard]] CheckpointFile parse_checkpoint(const std::string& text);

/// Reads and parse_checkpoint()s a file; kIo when it is unreadable. Every
/// error carries the file path in its context chain.
[[nodiscard]] CheckpointFile load_checkpoint_file(const std::string& path);

}  // namespace xlp::runctl
