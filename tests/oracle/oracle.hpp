// Test-only oracles for the Pareto-DP engine (core/pareto_dp.hpp). They
// live here, not in the library: the identity suites and
// bench_pareto_arena link them to cross-validate the engine.
//
//   * The pre-arena reference engine: recursive region frontiers,
//     sort-then-scan pruning, a full cut vector copied per product point.
//   * The straight-line scalar merge kernel the engine's SIMD merge must
//     reproduce pop for pop, swappable into the engine's colour pipelines
//     for whole solves.
//   * Adapters that run the engine's own merge and region pass on plain
//     point vectors with explicit cuts, so the two sides compare directly.
#pragma once

#include <cstddef>
#include <vector>

#include "core/pareto_dp.hpp"

namespace treesat::oracle {

/// One point of a (load, host) frontier with the cut realizing it.
struct ParetoPoint {
  double load = 0.0;       ///< satellite time: work below the cut + uplink
  double host = 0.0;       ///< host time of region nodes above the cut
  std::vector<CruId> cut;  ///< cut nodes realizing the point
};
using Frontier = std::vector<ParetoPoint>;

/// Reference (sort-based) Minkowski product-and-prune.
[[nodiscard]] Frontier reference_minkowski(const Frontier& a, const Frontier& b,
                                           std::size_t max_frontier);
/// Reference (recursive) frontier of the region rooted at `root`.
[[nodiscard]] Frontier reference_region_frontier(const Colouring& colouring, CruId root,
                                                 std::size_t max_frontier);
/// Reference end-to-end solve. Arena counters in stats stay zero.
[[nodiscard]] ParetoDpResult reference_solve(const Colouring& colouring,
                                             const ParetoDpOptions& options = {});

enum class Kernel { kSimd, kScalar };

/// Minkowski product of two load-sorted frontiers through the engine's
/// merge (kSimd) or the scalar merge (kScalar); cuts concatenate.
[[nodiscard]] Frontier merge(const Frontier& a, const Frontier& b, std::size_t max_frontier,
                             Kernel kernel = Kernel::kSimd);
/// The engine's frontier of one region, each point's cut reconstructed.
[[nodiscard]] Frontier engine_region_frontier(const Colouring& colouring, CruId root,
                                              std::size_t max_frontier);
/// A whole solve through the engine's colour pipelines with every merge run
/// by `kernel`: the same folds and stats as pareto_dp_solve, finished by
/// the oracle sweep over point vectors (so both kernels pay the same
/// overhead when timed against each other).
[[nodiscard]] ParetoDpResult kernel_solve(const Colouring& colouring,
                                          const ParetoDpOptions& options, Kernel kernel);

}  // namespace treesat::oracle
