#include "core/drivers.hpp"

#include "core/branch_bound.hpp"
#include "topo/connection_matrix.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace xlp::core {

namespace {

PlacementResult from_sa(const SaResult& sa, long evaluations, double seconds,
                        std::string method) {
  PlacementResult out{sa.best, sa.best_value, evaluations, seconds,
                      std::move(method)};
  out.status = sa.status;
  out.checkpoint = sa.checkpoint;
  return out;
}

}  // namespace

PlacementResult solve_only_sa(const RowObjective& objective, int link_limit,
                              const SaParams& params, Rng& rng) {
  const long evals_before = objective.evaluations();
  Stopwatch timer;
  const auto initial = topo::ConnectionMatrix::random(
      objective.row_size(), link_limit, rng, 0.5);
  SaParams labelled = params;
  if (labelled.method_label.empty()) labelled.method_label = "OnlySA";
  const SaResult sa =
      anneal_connection_matrix(initial, objective, labelled, rng);
  return from_sa(sa, objective.evaluations() - evals_before, timer.seconds(),
                 labelled.method_label);
}

PlacementResult solve_dcsa(const RowObjective& objective, int link_limit,
                           const SaParams& params, Rng& rng,
                           const DncOptions& dnc) {
  const long evals_before = objective.evaluations();
  Stopwatch timer;
  DncOptions dnc_options = dnc;
  if (dnc_options.control == nullptr) dnc_options.control = params.control;
  const DncResult initial =
      dnc_initial_solution(objective, link_limit, dnc_options);
  const auto matrix =
      topo::ConnectionMatrix::encode(initial.placement, link_limit);
  SaParams labelled = params;
  if (labelled.method_label.empty()) labelled.method_label = "D&C_SA";
  const SaResult sa =
      anneal_connection_matrix(matrix, objective, labelled, rng);
  // The annealer's best can only match or improve on the initial solution,
  // since the initial state is scored first.
  return from_sa(sa, objective.evaluations() - evals_before, timer.seconds(),
                 labelled.method_label);
}

PlacementResult solve_dnc_only(const RowObjective& objective, int link_limit,
                               const DncOptions& dnc) {
  const long evals_before = objective.evaluations();
  Stopwatch timer;
  DncResult result = dnc_initial_solution(objective, link_limit, dnc);
  PlacementResult out{std::move(result.placement), result.value,
                      objective.evaluations() - evals_before, timer.seconds(),
                      "D&C"};
  out.status = result.status;
  return out;
}

PlacementResult solve_exact(const RowObjective& objective, int link_limit,
                            runctl::RunControl* control) {
  const long evals_before = objective.evaluations();
  Stopwatch timer;
  BranchAndBound bb(objective, link_limit, control);
  ExactResult exact = bb.solve();
  return {std::move(exact.placement), exact.value,
          objective.evaluations() - evals_before, timer.seconds(), "exact",
          exact.status, std::nullopt};
}

PlacementResult resume_sa(const RowObjective& objective,
                          const runctl::SaCheckpoint& ckpt,
                          const SaParams& hooks) {
  XLP_REQUIRE(objective.row_size() == ckpt.n,
              "checkpoint was taken for a different row size");
  const long evals_before = objective.evaluations();
  Stopwatch timer;
  SaParams params = hooks;
  params.initial_temperature = ckpt.schedule.initial_temperature;
  params.total_moves = ckpt.schedule.total_moves;
  params.cool_scale = ckpt.schedule.cool_scale;
  params.moves_per_cool = ckpt.schedule.moves_per_cool;
  params.method_label = ckpt.method.empty() ? "SA-resumed" : ckpt.method;
  params.resume = &ckpt;
  // The generator's state is overwritten from the checkpoint inside the
  // annealer; the seed here is irrelevant.
  Rng rng(0);
  const SaResult sa =
      anneal_connection_matrix(ckpt.current, objective, params, rng);
  return from_sa(sa, objective.evaluations() - evals_before, timer.seconds(),
                 params.method_label);
}

}  // namespace xlp::core
