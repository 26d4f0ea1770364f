#include "core/sa.hpp"

#include <cmath>
#include <optional>

#include "core/delta_objective.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "util/check.hpp"

namespace xlp::core {

SaResult anneal_connection_matrix(const topo::ConnectionMatrix& initial,
                                  const RowObjective& objective,
                                  const SaParams& params, Rng& rng) {
  XLP_REQUIRE(initial.row_size() == objective.row_size(),
              "matrix and objective sizes must match");
  XLP_REQUIRE(params.initial_temperature > 0.0,
              "initial temperature must be positive");
  XLP_REQUIRE(params.cool_scale > 1.0, "cooling must reduce temperature");
  XLP_REQUIRE(params.moves_per_cool >= 1, "cooling period must be positive");

  const obs::ProfileScope profile_scope("sa.anneal");

  topo::ConnectionMatrix current = initial;
  double temperature = params.initial_temperature;
  int cooling_step = 0;
  long window_start_move = 0;
  long window_start_accepted = 0;
  long start_move = 0;
  double current_value;

  SaResult result{current.decode(), 0.0, current, 0, 0, 0};
  result.final_temperature = params.initial_temperature;

  if (params.resume != nullptr) {
    const runctl::SaCheckpoint& ck = *params.resume;
    XLP_REQUIRE(ck.n == initial.row_size() &&
                    ck.link_limit == initial.link_limit(),
                "checkpoint was taken for a different problem size");
    current = ck.current;
    current_value = ck.current_value;
    rng.set_state(ck.rng_state);
    temperature = ck.temperature;
    cooling_step = static_cast<int>(ck.cooling_step);
    window_start_move = ck.window_start_move;
    window_start_accepted = ck.window_start_accepted;
    start_move = ck.next_move;
    result.best_matrix = ck.best;
    result.best_value = ck.best_value;
    result.best = result.best_matrix.decode();
    result.moves = ck.moves;
    result.accepted = ck.accepted;
    result.improved = ck.improved;
  } else {
    current_value = objective.evaluate(current.decode());
    result.best_value = current_value;
    result.best = current.decode();
  }

  // A degenerate matrix (C == 1 or n <= 2) has no flippable bits: the plain
  // row is the only state.
  if (initial.bit_count() == 0) return result;

  // The incremental evaluator scores each flip from the affected hop
  // columns with bit-identical values (see DeltaRowObjective). Built after
  // any resume restore so its hop table describes the restored matrix; its
  // copy of the state advances in lockstep with `current` via
  // commit/revert.
  std::optional<DeltaRowObjective> delta;
  if (params.delta_eval) delta.emplace(objective, current);

  // Snapshots the loop state at a move boundary: `next_move` is the first
  // move the continuation will execute, and every field — including the
  // raw RNG words — is captured so the continuation replays the exact
  // trajectory the uninterrupted run would have taken.
  const auto capture = [&](long next_move, bool complete) {
    runctl::SaCheckpoint ck;
    ck.schedule = params.schedule();
    ck.method = params.method_label;
    ck.n = initial.row_size();
    ck.link_limit = initial.link_limit();
    ck.next_move = next_move;
    ck.cooling_step = cooling_step;
    ck.temperature = temperature;
    ck.window_start_move = window_start_move;
    ck.window_start_accepted = window_start_accepted;
    ck.moves = result.moves;
    ck.accepted = result.accepted;
    ck.improved = result.improved;
    ck.rng_state = rng.state();
    ck.current = current;
    ck.current_value = current_value;
    ck.best = result.best_matrix;
    ck.best_value = result.best_value;
    ck.complete = complete;
    return ck;
  };

  long move = start_move;
  for (; move < params.total_moves; ++move) {
    if (params.control != nullptr && params.control->stop_requested()) {
      result.status = params.control->status();
      break;
    }
    const int bit = static_cast<int>(
        rng.uniform_below(static_cast<std::uint64_t>(current.bit_count())));
    double candidate_value;
    {
      const obs::ProfileScope eval_scope("sa.evaluate");
      if (delta.has_value()) {
        candidate_value = delta->propose_flip(bit);
      } else {
        current.flip_flat(bit);
        candidate_value = objective.evaluate(current.decode());
      }
    }
    const double value_delta = candidate_value - current_value;

    bool accept = value_delta <= 0.0;
    if (!accept && temperature > 0.0)
      accept = rng.uniform01() < std::exp(-value_delta / temperature);

    if (accept) {
      if (delta.has_value()) {
        delta->commit();
        current.flip_flat(bit);
      }
      current_value = candidate_value;
      ++result.accepted;
      if (value_delta <= 0.0) ++result.improved;
      if (candidate_value < result.best_value) {
        result.best_value = candidate_value;
        result.best_matrix = current;
      }
    } else if (delta.has_value()) {
      delta->revert();
    } else {
      current.flip_flat(bit);  // undo
    }

    ++result.moves;
    if ((move + 1) % params.moves_per_cool == 0) {
      if (params.series != nullptr) {
        const double x = static_cast<double>(move + 1);
        const long window_moves = (move + 1) - window_start_move;
        const long window_accepted = result.accepted - window_start_accepted;
        obs::SeriesRecorder& rec = *params.series;
        rec.append(params.series_prefix + "sa.objective", x, current_value);
        rec.append(params.series_prefix + "sa.best", x, result.best_value);
        rec.append(params.series_prefix + "sa.temperature", x, temperature);
        rec.append(params.series_prefix + "sa.acceptance", x,
                   window_moves > 0
                       ? static_cast<double>(window_accepted) / window_moves
                       : 0.0);
      }
      ++cooling_step;
      window_start_move = move + 1;
      window_start_accepted = result.accepted;
      temperature /= params.cool_scale;
    }
    if (params.checkpoint_sink && params.checkpoint_every_moves > 0 &&
        (move + 1) % params.checkpoint_every_moves == 0 &&
        move + 1 < params.total_moves) {
      params.checkpoint_sink(capture(move + 1, false));
    }
  }

  if (result.status != runctl::RunStatus::kCompleted)
    result.checkpoint = capture(move, false);
  if (params.checkpoint_sink) {
    params.checkpoint_sink(
        capture(move, result.status == runctl::RunStatus::kCompleted));
  }

  result.best = result.best_matrix.decode();
  result.acceptance_rate =
      result.moves > 0
          ? static_cast<double>(result.accepted) / result.moves
          : 0.0;
  result.final_temperature = temperature;

  auto& metrics = obs::MetricsRegistry::global();
  metrics.add("core.sa.runs");
  metrics.add("core.sa.moves", result.moves);
  metrics.add("core.sa.accepted", result.accepted);
  if (delta.has_value()) {
    metrics.add("core.delta.columns", delta->work().columns);
    metrics.add("core.delta.restored_bytes", delta->work().restored_bytes);
  }
  return result;
}

}  // namespace xlp::core
