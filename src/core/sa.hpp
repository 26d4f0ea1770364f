#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "core/objective.hpp"
#include "runctl/checkpoint.hpp"
#include "runctl/control.hpp"
#include "topo/connection_matrix.hpp"
#include "util/rng.hpp"

namespace xlp::obs {
class SeriesRecorder;
}

namespace xlp::core {

/// Simulated-annealing schedule, Table 1 of the paper: exponential
/// acceptance exp(-dL/T), linear cooling implemented as T <- T / cool_scale
/// every moves_per_cool moves, starting from T0.
struct SaParams {
  double initial_temperature = 10.0;  // T0, in cycles
  long total_moves = 10000;           // m
  double cool_scale = 2.0;            // Sc
  long moves_per_cool = 1000;         // mc

  /// Optional bounded-memory recorder (not owned; must outlive the run).
  /// When set, the annealer appends objective / best-so-far / temperature /
  /// window acceptance-rate samples once per cooling step, under names
  /// prefixed with series_prefix (portfolio chains pass "chainK." so their
  /// merged recordings stay disjoint and deterministic).
  obs::SeriesRecorder* series = nullptr;
  std::string series_prefix;

  /// Cooperative stop: when set, the annealing loop polls it once per move
  /// and stops early (keeping the best solution found so far) on a
  /// deadline or an interrupt. Not owned; may be null.
  runctl::RunControl* control = nullptr;

  /// When set together with checkpoint_every_moves > 0, the annealer hands
  /// a full state snapshot to this sink every checkpoint_every_moves
  /// moves, once more if it stops early, and a final one (complete=true)
  /// when the schedule finishes. Called synchronously from the loop —
  /// sinks that hit the filesystem should keep the cadence coarse.
  std::function<void(const runctl::SaCheckpoint&)> checkpoint_sink;
  long checkpoint_every_moves = 0;

  /// Resume from a previously captured snapshot instead of starting fresh:
  /// restores the matrix, counters, temperature and RNG words, so the
  /// continued run is bit-identical to one that was never stopped. The
  /// schedule fields above must equal the checkpoint's (drivers rebuild
  /// them from it). Not owned; may be null.
  const runctl::SaCheckpoint* resume = nullptr;

  /// Label recorded in emitted checkpoints so `xlp run --resume` knows
  /// which driver produced them (e.g. "OnlySA").
  std::string method_label;

  /// Score each move with the incremental evaluator (DeltaRowObjective):
  /// the hop columns a flipped connection point reaches instead of a full
  /// shortest-paths rebuild, with bit-identical values — the trajectory,
  /// checkpoints and SaResult are byte-for-byte the same either way, so
  /// this is a pure speed knob. Off is the reference path (benchmarks
  /// measure it; XLP_CHECK_DELTA=1 cross-checks every delta score against
  /// it at runtime). Objectives a delta evaluator cannot reproduce
  /// (secondary-metric blends) fall back to full evaluation internally.
  bool delta_eval = true;

  /// The schedule fields a checkpoint carries, and their restore.
  [[nodiscard]] runctl::SaSchedule schedule() const {
    return {initial_temperature, total_moves, cool_scale, moves_per_cool};
  }
  void set_schedule(const runctl::SaSchedule& s) {
    initial_temperature = s.initial_temperature;
    total_moves = s.total_moves;
    cool_scale = s.cool_scale;
    moves_per_cool = s.moves_per_cool;
  }

  /// Scales the move budget while keeping the same cooling profile shape
  /// (used by the runtime-comparison experiment, Fig. 7).
  [[nodiscard]] SaParams with_moves(long moves) const {
    SaParams p = *this;
    p.total_moves = moves;
    // Keep the number of cooling steps constant so the temperature profile
    // is the same function of move fraction. The product is taken in 128
    // bits: moves * moves_per_cool overflows a long past ~9.2e15 moves.
    const __int128_t period = static_cast<__int128_t>(moves) *
                              moves_per_cool /
                              std::max<long>(1, total_moves);
    p.moves_per_cool = static_cast<long>(std::clamp<__int128_t>(
        period, 1, std::numeric_limits<long>::max()));
    return p;
  }
};

/// Outcome of one annealing run.
struct SaResult {
  topo::RowTopology best;
  double best_value = 0.0;
  topo::ConnectionMatrix best_matrix;
  long moves = 0;
  long accepted = 0;
  long improved = 0;  // accepted moves with dL <= 0
  /// accepted / moves over the whole run (0 when no moves were made), so
  /// callers stop re-deriving it.
  double acceptance_rate = 0.0;
  /// Temperature after the last cooling step (== initial_temperature when
  /// the schedule never cooled or the matrix was degenerate).
  double final_temperature = 0.0;
  /// kCompleted when the schedule ran out naturally; kDeadline /
  /// kInterrupted when SaParams::control stopped the loop early. The best
  /// solution fields are valid either way.
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
  /// Engaged when the run stopped early: the snapshot to persist so the
  /// run can be continued with SaParams::resume.
  std::optional<runctl::SaCheckpoint> checkpoint;
};

/// The paper's annealer over the connection-matrix search space (Section
/// 4.4.2): the state is a (n-2)x(C-1) bit matrix, one move flips one
/// uniformly chosen connection point, and every state decodes to a valid
/// placement — no move is ever wasted on an infeasible candidate.
[[nodiscard]] SaResult anneal_connection_matrix(
    const topo::ConnectionMatrix& initial, const RowObjective& objective,
    const SaParams& params, Rng& rng);

}  // namespace xlp::core
