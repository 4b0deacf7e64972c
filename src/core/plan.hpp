// SolvePlan: the typed per-algorithm entry point of the solver facade.
//
// Every solve method in treesat carries its own knobs -- the coloured SSB
// search has expansion caps and a fallback policy, the annealer has a
// temperature schedule, the GA has population parameters, branch-and-bound
// has a node cap. A plan is "one method + exactly its own options", built
// through a named constructor per algorithm:
//
//   solve(colouring, SolvePlan::coloured_ssb({.expansion_cap_per_region = 4096}));
//   solve(colouring, SolvePlan::genetic());          // defaults
//   solve(colouring, SolvePlan::automatic());        // pick a method for me
//
// `automatic()` defers the choice until the instance is known: resolve()
// inspects the cut-space size and the colour structure and picks the method
// a practitioner would (brute force when the space is tiny, the Pareto DP
// when multi-region colours put the SSB search in its stall regime, the
// paper's coloured SSB otherwise).
//
// The string side of the same surface lives in core/registry.hpp:
// parse_plan("coloured-ssb:expansion_cap=4096") builds the identical plan,
// and the registry enumerates every method for CLI-style harnesses.
//
// Parallelism knobs live at two levels: ExecutorOptions::threads (spec key
// threads=) parallelizes *across* the instances of a batch, while
// ParetoDpOptions::dp_threads (spec key dp_threads=) parallelizes *inside*
// one pareto-dp solve, farming its independent per-colour frontier
// pipelines to the same work-stealing scheduler (core/worklist.hpp).
// ExecutorOptions::priority (spec key priority=) picks the batch's
// schedule order: cost (default -- largest instances first, through the
// scheduler's priority bins) or none (input order). Every combination is
// byte-identity preserving at any thread count: scheduling decides when
// an instance runs, never what it computes.
#pragma once

#include <cstdint>
#include <string_view>
#include <variant>

#include "core/coloured_ssb.hpp"
#include "core/colouring.hpp"
#include "core/objective.hpp"
#include "core/pareto_dp.hpp"
#include "heuristics/annealing.hpp"
#include "heuristics/branch_bound.hpp"
#include "heuristics/genetic.hpp"
#include "heuristics/local_search.hpp"

namespace treesat {

enum class SolveMethod : std::uint8_t {
  kColouredSsb,  ///< the paper's adapted SSB path search (exact)
  kParetoDp,     ///< Pareto-frontier DP (exact, our extension)
  kExhaustive,   ///< brute-force cut enumeration (exact, small trees only)
  kBranchBound,  ///< branch-and-bound over cuts (exact; paper future work)
  kGenetic,      ///< genetic algorithm (heuristic; paper future work)
  kLocalSearch,  ///< hill climbing with restarts (heuristic)
  kGreedy,       ///< greedy bottleneck descent (heuristic baseline)
  kAnnealing,    ///< simulated annealing (heuristic)
  kAutomatic,    ///< pick per instance (resolved by SolvePlan::resolve)
};

/// Number of SolveMethod values (kAutomatic included); sized for dense
/// per-method arrays such as BatchReport::method_counts. Derived from the
/// last enumerator so the enum cannot silently outgrow it.
inline constexpr std::size_t kSolveMethodCount =
    static_cast<std::size_t>(SolveMethod::kAutomatic) + 1;

/// Schedule order of a batch on the work-stealing pool
/// (core/worklist.hpp). Result-invisible: reports are byte-identical
/// either way; only the wall clock (and which instances start before a
/// deadline expires) can differ.
enum class BatchPriority : std::uint8_t {
  /// Estimated-cost-ordered, largest first (LPT): the instances most
  /// likely to straggle start early instead of being claimed last and
  /// serializing the tail. The default -- the cost model is the instance's
  /// tree size, free to compute.
  kCost,
  /// Input order, single priority bin (the pre-scheduler behavior).
  kNone,
};

/// Cross-cutting batch-execution knobs, carried by every plan alongside the
/// objective and the seed. They only take effect when the plan is handed to
/// solve_batch() / BatchExecutor (core/executor.hpp); a single solve()
/// ignores them. The spec grammar spells them threads= / deadline_ms= /
/// fail_fast= / priority= on every method.
struct ExecutorOptions {
  /// Worker threads for a batch. 1 (default) solves inline on the calling
  /// thread; 0 means one worker per hardware thread. parse_plan rejects 0 --
  /// the auto value is for programmatic use only.
  std::size_t threads = 1;
  /// Wall-clock budget for the whole batch in seconds; 0 = none. Checked
  /// between instances: a running solve is never interrupted, but instances
  /// not yet started when the budget expires fail with a deadline message.
  double deadline_seconds = 0.0;
  /// Stop claiming new instances after the first failure (default). When
  /// false the executor finishes the remaining instances and reports every
  /// failure in BatchReport::failures.
  bool fail_fast = true;
  /// Schedule order on the worker pool (spec key priority=cost|none).
  /// Cost-ordered by default; see BatchPriority. Ignored at threads <= 1,
  /// which always runs in input order (sequential fail-fast semantics).
  BatchPriority priority = BatchPriority::kCost;
  /// Carry search state across the instances of a perturbation stream
  /// (core/incremental.hpp): solve_stream() threads a ResolveSession along
  /// the sequence instead of cold-solving every step on the worker pool.
  /// Ignored by plain solve()/solve_batch(), whose instances are unrelated.
  /// The spec grammar spells it warm_start=.
  bool warm_start = false;
};

/// Canonical method name, e.g. "coloured-ssb". Round-trips with
/// parse_method().
[[nodiscard]] const char* method_name(SolveMethod method);

/// Inverse of method_name(). '_' and '-' are interchangeable
/// ("coloured_ssb" == "coloured-ssb"); throws InvalidArgument on an
/// unknown name.
[[nodiscard]] SolveMethod parse_method(std::string_view name);

/// Options of the exhaustive oracle (core/exhaustive.hpp takes these as
/// loose arguments; the plan bundles them).
struct ExhaustiveOptions {
  SsbObjective objective = SsbObjective::end_to_end();
  /// Enumeration cap; exceeding it throws ResourceLimit.
  std::size_t cap = std::size_t{1} << 22;
};

/// Options of the greedy bottleneck descent (deterministic, so only the
/// objective).
struct GreedyOptions {
  SsbObjective objective = SsbObjective::end_to_end();
};

/// Options of the automatic method choice. No seed: resolution only ever
/// picks exact (deterministic) methods.
struct AutomaticOptions {
  SsbObjective objective = SsbObjective::end_to_end();
  /// Instances whose full cut space is smaller than this are brute-forced:
  /// at this size the oracle is instant and trivially exact.
  std::size_t exhaustive_cutoff = 4096;
};

/// One solve method plus exactly its option set. Immutable apart from the
/// two cross-cutting setters (objective, seed) that every harness wants to
/// thread through uniformly.
class SolvePlan {
 public:
  using Options = std::variant<ColouredSsbOptions, ParetoDpOptions, ExhaustiveOptions,
                               BranchBoundOptions, GeneticOptions, LocalSearchOptions,
                               GreedyOptions, AnnealingOptions, AutomaticOptions>;

  /// The default plan is the paper's own algorithm with default options.
  SolvePlan() : method_(SolveMethod::kColouredSsb), options_(ColouredSsbOptions{}) {}

  [[nodiscard]] static SolvePlan coloured_ssb(ColouredSsbOptions options = {});
  [[nodiscard]] static SolvePlan pareto_dp(ParetoDpOptions options = {});
  [[nodiscard]] static SolvePlan exhaustive(ExhaustiveOptions options = {});
  [[nodiscard]] static SolvePlan branch_bound(BranchBoundOptions options = {});
  [[nodiscard]] static SolvePlan genetic(GeneticOptions options = {});
  [[nodiscard]] static SolvePlan local_search(LocalSearchOptions options = {});
  [[nodiscard]] static SolvePlan greedy(GreedyOptions options = {});
  [[nodiscard]] static SolvePlan annealing(AnnealingOptions options = {});
  [[nodiscard]] static SolvePlan automatic(AutomaticOptions options = {});

  [[nodiscard]] SolveMethod method() const { return method_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// The method's option struct; throws std::bad_variant_access when T does
  /// not match method().
  template <typename T>
  [[nodiscard]] const T& options_as() const {
    return std::get<T>(options_);
  }

  /// The objective stored in the method's options.
  [[nodiscard]] SsbObjective objective() const;

  /// Replaces the objective in place (every method has one).
  SolvePlan& with_objective(const SsbObjective& objective);

  /// True when the method consumes a seed (genetic, local-search,
  /// annealing).
  [[nodiscard]] bool seeded() const;

  /// Sets the seed on seeded methods; a documented no-op on the rest, so
  /// harnesses can thread one seed through a method sweep.
  SolvePlan& with_seed(std::uint64_t seed);

  /// The seed stored in the method's options; 0 for unseeded methods. The
  /// batch executor derives per-instance seeds from this value.
  [[nodiscard]] std::uint64_t seed() const;

  /// The batch-execution knobs carried by this plan (threads, deadline,
  /// fail-fast). Only solve_batch()/BatchExecutor reads them.
  [[nodiscard]] const ExecutorOptions& executor() const { return executor_; }

  /// Replaces the batch-execution knobs. Deadline must be non-negative.
  SolvePlan& with_executor(const ExecutorOptions& executor);

  /// Resolves kAutomatic against a concrete instance; any other plan is
  /// returned unchanged. The choice:
  ///   * cut space smaller than `exhaustive_cutoff` -> exhaustive;
  ///   * some colour split across >= 2 regions -> pareto-dp (the stall
  ///     regime of §5.4, where the SSB search would expand or fall back --
  ///     and its fallback delegates to this same DP anyway);
  ///   * otherwise -> coloured-ssb (the paper's fast path).
  [[nodiscard]] SolvePlan resolve(const Colouring& colouring) const;

 private:
  SolvePlan(SolveMethod method, Options options)
      : method_(method), options_(std::move(options)) {}

  SolveMethod method_;
  Options options_;
  ExecutorOptions executor_;
};

}  // namespace treesat
