#include "core/solver.hpp"

#include "common/stopwatch.hpp"
#include "core/assignment_graph.hpp"
#include "core/coloured_ssb.hpp"
#include "core/executor.hpp"
#include "core/exhaustive.hpp"
#include "core/pareto_dp.hpp"
#include "heuristics/annealing.hpp"
#include "heuristics/branch_bound.hpp"
#include "heuristics/genetic.hpp"
#include "heuristics/local_search.hpp"

namespace treesat {

SolveReport solve(const Colouring& colouring, const SolvePlan& plan) {
  const Stopwatch watch;
  const SolvePlan resolved = plan.resolve(colouring);
  const SsbObjective objective = resolved.objective();

  const auto finish = [&](Assignment assignment, bool exact, MethodStats stats) {
    DelayBreakdown delay = assignment.delay();
    const double value = delay.objective(objective);
    return SolveReport{std::move(assignment), std::move(delay), value,
                       watch.seconds(),       exact,            resolved.method(),
                       plan.method(),         std::move(stats)};
  };

  switch (resolved.method()) {
    case SolveMethod::kColouredSsb: {
      const AssignmentGraph ag(colouring);
      ColouredSsbResult r =
          coloured_ssb_solve(ag, resolved.options_as<ColouredSsbOptions>());
      return finish(std::move(r.assignment), /*exact=*/true, r.stats);
    }
    case SolveMethod::kParetoDp: {
      ParetoDpResult r = pareto_dp_solve(colouring, resolved.options_as<ParetoDpOptions>());
      return finish(std::move(r.assignment), /*exact=*/true, r.stats);
    }
    case SolveMethod::kExhaustive: {
      const auto& o = resolved.options_as<ExhaustiveOptions>();
      ExhaustiveResult r = exhaustive_solve(colouring, o.objective, o.cap);
      return finish(std::move(r.assignment), /*exact=*/true,
                    ExhaustiveStats{r.assignments_enumerated});
    }
    case SolveMethod::kBranchBound: {
      BranchBoundResult r =
          branch_bound_solve(colouring, resolved.options_as<BranchBoundOptions>());
      return finish(std::move(r.assignment), /*exact=*/true,
                    BranchBoundStats{r.nodes_visited, r.nodes_pruned});
    }
    case SolveMethod::kGenetic: {
      GeneticResult r = genetic_solve(colouring, resolved.options_as<GeneticOptions>());
      return finish(std::move(r.assignment), /*exact=*/false,
                    GeneticStats{r.generations_run, r.evaluations});
    }
    case SolveMethod::kLocalSearch: {
      LocalSearchResult r =
          local_search_solve(colouring, resolved.options_as<LocalSearchOptions>());
      return finish(std::move(r.assignment), /*exact=*/false,
                    LocalSearchStats{r.moves_applied, r.restarts_run});
    }
    case SolveMethod::kGreedy: {
      LocalSearchResult r = greedy_solve(colouring, objective);
      return finish(std::move(r.assignment), /*exact=*/false,
                    LocalSearchStats{r.moves_applied, r.restarts_run});
    }
    case SolveMethod::kAnnealing: {
      AnnealingResult r = annealing_solve(colouring, resolved.options_as<AnnealingOptions>());
      return finish(std::move(r.assignment), /*exact=*/false,
                    AnnealingStats{r.steps_run, r.moves_accepted});
    }
    case SolveMethod::kAutomatic:
      break;  // resolve() never returns kAutomatic
  }
  throw LogicError("solve: unresolved method");
}

std::vector<SolveReport> solve_batch(std::span<const Colouring* const> instances,
                                     const SolvePlan& plan) {
  return solve_batch_report(instances, plan).take_reports();
}

}  // namespace treesat
