#include "core/drivers.hpp"

#include <iterator>
#include <utility>

#include "core/branch_bound.hpp"
#include "topo/connection_matrix.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace xlp::core {

namespace {

// The request/checkpoint name and the result label of each Solver, in
// enum order.
constexpr std::pair<const char*, const char*> kSolverNames[] = {
    {"dcsa", "D&C_SA"}, {"onlysa", "OnlySA"}, {"dnc", "D&C"},
    {"exact", "exact"}};

const char* method_label(Solver solver) noexcept {
  return kSolverNames[static_cast<std::size_t>(solver)].second;
}

/// Points at `storage`, a copy of `*control`; null stays null.
runctl::RunControl* private_copy(runctl::RunControl* control,
                                 runctl::RunControl& storage) noexcept {
  if (control == nullptr) return nullptr;
  storage = *control;
  return &storage;
}

}  // namespace

PlacementResult solve_only_sa(const RowObjective& objective, int link_limit,
                              const SaParams& params, Rng& rng) {
  return solve_row(objective, link_limit, Solver::kOnlySa, params, {}, rng);
}

PlacementResult solve_dcsa(const RowObjective& objective, int link_limit,
                           const SaParams& params, Rng& rng,
                           const DncOptions& dnc) {
  return solve_row(objective, link_limit, Solver::kDcsa, params, dnc, rng);
}

PlacementResult solve_dnc_only(const RowObjective& objective, int link_limit,
                               const DncOptions& dnc) {
  const long evals_before = objective.evaluations();
  Stopwatch timer;
  DncResult result = dnc_initial_solution(objective, link_limit, dnc);
  return {std::move(result.placement), result.value,
          objective.evaluations() - evals_before, timer.seconds(),
          method_label(Solver::kDncOnly), result.status, std::nullopt};
}

PlacementResult solve_exact(const RowObjective& objective, int link_limit,
                            runctl::RunControl* control) {
  const long evals_before = objective.evaluations();
  Stopwatch timer;
  BranchAndBound bb(objective, link_limit, control);
  ExactResult exact = bb.solve();
  return {std::move(exact.placement), exact.value,
          objective.evaluations() - evals_before, timer.seconds(),
          method_label(Solver::kExact), exact.status, std::nullopt};
}

const char* to_string(Solver solver) noexcept {
  return kSolverNames[static_cast<std::size_t>(solver)].first;
}

std::optional<Solver> parse_solver(std::string_view text,
                                   bool by_method) noexcept {
  for (std::size_t i = 0; i < std::size(kSolverNames); ++i)
    if (text == (by_method ? kSolverNames[i].second : kSolverNames[i].first))
      return static_cast<Solver>(i);
  return std::nullopt;
}

bool is_annealed(Solver solver) noexcept {
  return solver == Solver::kDcsa || solver == Solver::kOnlySa;
}

PlacementResult solve_row(const RowObjective& objective, int link_limit,
                          Solver solver, const SaParams& sa,
                          const DncOptions& dnc, Rng& rng,
                          const runctl::SaCheckpoint* resume) {
  const long evals_before = objective.evaluations();
  Stopwatch timer;
  runctl::RunControl sa_control;
  runctl::RunControl dnc_control;
  SaParams params = sa;
  params.control = private_copy(sa.control, sa_control);
  if (params.method_label.empty()) params.method_label = method_label(solver);
  DncOptions phases = dnc;
  phases.control = dnc.control != nullptr
                       ? private_copy(dnc.control, dnc_control)
                       : params.control;

  std::optional<topo::ConnectionMatrix> initial;
  if (resume != nullptr) {
    XLP_REQUIRE(objective.row_size() == resume->n &&
                    link_limit == resume->link_limit,
                "checkpoint was taken for a different P(n, C)");
    // The schedule comes from the checkpoint, so the trajectory matches the
    // uninterrupted run bit for bit; the annealer restores `rng` from it.
    params.set_schedule(resume->schedule);
    params.method_label =
        resume->method.empty() ? "SA-resumed" : resume->method;
    params.resume = resume;
    initial = resume->current;
  } else {
    switch (solver) {
      case Solver::kDcsa:
        // The annealer scores its initial state first, so its best can
        // only match or improve on I(n, C).
        initial = topo::ConnectionMatrix::encode(
            dnc_initial_solution(objective, link_limit, phases).placement,
            link_limit);
        break;
      case Solver::kOnlySa:
        initial = topo::ConnectionMatrix::random(objective.row_size(),
                                                 link_limit, rng, 0.5);
        break;
      case Solver::kDncOnly:
        return solve_dnc_only(objective, link_limit, phases);
      case Solver::kExact:
        return solve_exact(objective, link_limit, phases.control);
    }
  }
  SaResult result =
      anneal_connection_matrix(initial.value(), objective, params, rng);
  return {std::move(result.best), result.best_value,
          objective.evaluations() - evals_before, timer.seconds(),
          params.method_label, result.status, std::move(result.checkpoint)};
}

}  // namespace xlp::core
